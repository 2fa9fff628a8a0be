package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hls"
	"repro/internal/kernels"
)

var (
	tableOnce sync.Once
	tableRows []Row
	tableErr  error
)

// table computes the full Table 1 once; several tests inspect it.
func table(t *testing.T) []Row {
	t.Helper()
	tableOnce.Do(func() {
		tableRows, tableErr = Table1(hls.DefaultOptions())
	})
	if tableErr != nil {
		t.Fatal(tableErr)
	}
	return tableRows
}

// TestTable1Complete: 6 kernels × 3 versions, all within budget.
func TestTable1Complete(t *testing.T) {
	rows := table(t)
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(rows))
	}
	for _, r := range rows {
		if r.TotalRegs < 1 || r.TotalRegs > kernels.DefaultRmax {
			t.Errorf("%s %s: %d registers", r.Kernel, r.Version, r.TotalRegs)
		}
		if r.Cycles <= 0 || r.TimeUs <= 0 || r.Slices <= 0 || r.RAMs <= 0 {
			t.Errorf("%s %s: degenerate metrics %+v", r.Kernel, r.Version, r)
		}
	}
}

// TestPaperShape is the headline reproduction check: the measured table
// satisfies every qualitative claim of §5.
func TestPaperShape(t *testing.T) {
	rows := table(t)
	if violations := CheckPaperShape(rows); len(violations) != 0 {
		t.Fatalf("paper-shape violations:\n%s\n\ntable:\n%s",
			strings.Join(violations, "\n"), Format(rows))
	}
}

// TestPaperShapeViolationOrder: with several kernels violating, the
// violations come out in Table-1 row order, the same on every call.
func TestPaperShapeViolationOrder(t *testing.T) {
	rows := append([]Row(nil), table(t)...)
	// Break v3's cycle claim on the last kernel and v2's register claim on
	// the first, so map order could put either first.
	last, first := rows[len(rows)-1].Kernel, rows[0].Kernel
	for i := range rows {
		switch {
		case rows[i].Kernel == last && rows[i].Version == "v3":
			rows[i].Cycles = 1 << 30
		case rows[i].Kernel == first && rows[i].Version == "v2":
			rows[i].TotalRegs = 0
		}
	}
	want := CheckPaperShape(rows)
	if len(want) < 2 || !strings.HasPrefix(want[0], first+": v2 uses fewer registers") ||
		!strings.HasPrefix(want[1], last+": v3 cycles") {
		t.Fatalf("violations = %q, want %s's then %s's first", want, first, last)
	}
	for range 50 {
		if got := CheckPaperShape(rows); !slices.Equal(got, want) {
			t.Fatalf("violations changed between calls:\n%q\nthen\n%q", want, got)
		}
	}
}

// TestAggregatesBands: the averages land in the paper's bands — v3 cycle
// gains well above v2's, positive v3 wall-clock gain, mild clock loss.
func TestAggregatesBands(t *testing.T) {
	agg := Aggregates(table(t))
	if agg.AvgCycleRedV3 < 10 {
		t.Errorf("v3 avg cycle reduction %.1f%% below 10%% (paper ~22%%)", agg.AvgCycleRedV3)
	}
	if agg.AvgCycleRedV2 < 0 {
		t.Errorf("v2 avg cycle reduction %.1f%% negative", agg.AvgCycleRedV2)
	}
	if agg.AvgTimeGainV3 < 5 {
		t.Errorf("v3 avg wall-clock gain %.1f%% below 5%% (paper ~12%%)", agg.AvgTimeGainV3)
	}
	if agg.AvgClockLossV3 < 0 || agg.AvgClockLossV3 > 15 {
		t.Errorf("v3 clock loss %.1f%% outside [0,15]", agg.AvgClockLossV3)
	}
	if agg.CycleGainV3OverV2 < 0 {
		t.Errorf("v3 does not beat v2 on cycles: %.1f%%", agg.CycleGainV3OverV2)
	}
	s := agg.String()
	if !strings.Contains(s, "v3") || !strings.Contains(s, "clock loss") {
		t.Errorf("aggregate string malformed: %s", s)
	}
}

// TestFigure2EndToEnd pins the complete walk-through: the cut set and the
// three algorithms' register distributions and Tmem values.
func TestFigure2EndToEnd(t *testing.T) {
	res, err := Figure2(hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantCuts := []string{"{a[k],b[k][j]}", "{d[i][k]}", "{e[i][j][k]}"}
	if strings.Join(res.Cuts, " ") != strings.Join(wantCuts, " ") {
		t.Errorf("cuts = %v, want %v", res.Cuts, wantCuts)
	}
	if len(res.CGRefs) != 4 {
		t.Errorf("CG refs = %v, want 4 (c is off the critical path)", res.CGRefs)
	}
	// Distributions are rendered in first-use order (a, b, d, c, e).
	want := map[string]struct {
		dist string
		tmem int
	}{
		"FR-RA":  {"β(a)=30 β(b)=1 β(d)=1 β(c)=20 β(e)=1", 1800},
		"PR-RA":  {"β(a)=30 β(b)=1 β(d)=12 β(c)=20 β(e)=1", 1560},
		"CPA-RA": {"β(a)=16 β(b)=16 β(d)=30 β(c)=1 β(e)=1", 1200},
	}
	if len(res.PerAlg) != 3 {
		t.Fatalf("got %d algorithms", len(res.PerAlg))
	}
	for _, pa := range res.PerAlg {
		w := want[pa.Algorithm]
		if pa.Distribution != w.dist {
			t.Errorf("%s distribution = %q, want %q", pa.Algorithm, pa.Distribution, w.dist)
		}
		if pa.TmemPerOuter != w.tmem {
			t.Errorf("%s Tmem = %d, want %d", pa.Algorithm, pa.TmemPerOuter, w.tmem)
		}
	}
	if !strings.Contains(res.DFG, "d[i][k]") || !strings.Contains(res.Nest, "for (k") {
		t.Error("walk-through missing DFG/nest renderings")
	}
}

// TestFormatReadable: the formatted table contains every kernel and the
// header columns.
func TestFormatReadable(t *testing.T) {
	out := Format(table(t))
	for _, frag := range []string{"Kernel", "Cycles", "Speedup", "fir", "decfir", "imi", "mat", "pat", "bic", "v3", "CPA-RA"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted table missing %q", frag)
		}
	}
}

// TestKernelRowsSingle exercises the per-kernel API used by cmd/table1.
func TestKernelRowsSingle(t *testing.T) {
	k, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := KernelRows(k, hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Version != "v1" || rows[2].Algorithm != "CPA-RA" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Speedup != 1.0 || rows[0].CycleRedPct != 0 {
		t.Errorf("v1 must be its own baseline: %+v", rows[0])
	}
	if !strings.Contains(rows[0].RequiredRegs, "x:32") {
		t.Errorf("required registers missing: %q", rows[0].RequiredRegs)
	}
}

// TestFixedClockClaim verifies the paper's closing remark: "for
// configurable architectures where the clock rate is fixed regardless of
// the design complexity, the results would yield performance improvements
// for all code variants as derived from the reduction of the number of
// clock cycles." Under a fixed clock, wall-clock time is proportional to
// cycles, so v3 must win or tie against v1 and v2 on every kernel.
func TestFixedClockClaim(t *testing.T) {
	rows := table(t)
	byKernel := map[string][]Row{}
	for _, r := range rows {
		byKernel[r.Kernel] = append(byKernel[r.Kernel], r)
	}
	for k, v := range byKernel {
		v1, v2, v3 := v[0], v[1], v[2]
		if v3.Cycles > v1.Cycles {
			t.Errorf("%s: fixed-clock v3 loses to v1 (%d > %d cycles)", k, v3.Cycles, v1.Cycles)
		}
		if v3.Cycles > v2.Cycles {
			t.Errorf("%s: fixed-clock v3 loses to v2 (%d > %d cycles)", k, v3.Cycles, v2.Cycles)
		}
	}
}
