package hls

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/kernels"
)

func estimate(t *testing.T, kernel string, alg core.Allocator) *Design {
	t.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Estimate(k, alg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEstimateFigure1AllAlgorithms(t *testing.T) {
	for _, alg := range core.All() {
		d := estimate(t, "figure1", alg)
		if d.Registers < 5 || d.Registers > 64 {
			t.Errorf("%s: registers = %d out of range", alg.Name(), d.Registers)
		}
		if d.Cycles <= 0 || d.ClockNs <= 0 || d.TimeUs <= 0 {
			t.Errorf("%s: non-positive metrics: %+v", alg.Name(), d)
		}
		if d.Slices <= 0 || d.SliceUtil <= 0 || d.SliceUtil >= 100 {
			t.Errorf("%s: implausible area: slices=%d util=%.2f", alg.Name(), d.Slices, d.SliceUtil)
		}
		if d.RAMs <= 0 {
			t.Errorf("%s: no RAM blocks", alg.Name())
		}
		if err := d.Verify(5); err != nil {
			t.Errorf("%s: semantics check failed: %v", alg.Name(), err)
		}
	}
}

// TestCPAMemWinsOnFigure1: the contribution's Tmem advantage survives the
// full pipeline.
func TestCPAMemWinsOnFigure1(t *testing.T) {
	fr := estimate(t, "figure1", core.FRRA{})
	pr := estimate(t, "figure1", core.PRRA{})
	cpa := estimate(t, "figure1", core.CPARA{})
	if !(cpa.MemCycles < pr.MemCycles && pr.MemCycles < fr.MemCycles) {
		t.Fatalf("Tmem ordering violated: CPA=%d PR=%d FR=%d", cpa.MemCycles, pr.MemCycles, fr.MemCycles)
	}
}

// TestAllKernelsAllAlgorithms is the full 6×3 Table-1 sweep: every design
// must synthesize, fit the device and verify semantically.
func TestAllKernelsAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	algs := []core.Allocator{core.FRRA{}, core.PRRA{}, core.CPARA{}}
	for _, k := range kernels.All() {
		var designs []*Design
		for _, alg := range algs {
			d, err := Estimate(k, alg, DefaultOptions())
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, alg.Name(), err)
			}
			designs = append(designs, d)
		}
		fr, cpa := designs[0], designs[2]
		if cpa.Cycles > fr.Cycles {
			t.Errorf("%s: CPA-RA cycles %d exceed FR-RA %d", k.Name, cpa.Cycles, fr.Cycles)
		}
		if cpa.MemCycles > fr.MemCycles {
			t.Errorf("%s: CPA-RA Tmem %d exceeds FR-RA %d", k.Name, cpa.MemCycles, fr.MemCycles)
		}
	}
}

// TestVerifySweepSmallKernels: semantic verification across all algorithms
// for the kernels with affordable iteration spaces.
func TestVerifySweepSmallKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("verification sweep skipped in -short mode")
	}
	for _, name := range []string{"fir", "mat", "pat"} {
		for _, alg := range []core.Allocator{core.FRRA{}, core.PRRA{}, core.CPARA{}} {
			d := estimate(t, name, alg)
			if err := d.Verify(11); err != nil {
				t.Errorf("%s/%s: %v", name, alg.Name(), err)
			}
		}
	}
}

func TestRmaxOverride(t *testing.T) {
	k, _ := kernels.ByName("figure1")
	opt := DefaultOptions()
	opt.Rmax = 128
	d, err := Estimate(k, core.PRRA{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Registers <= 64 {
		t.Errorf("with Rmax=128 PR-RA should exceed 64 registers, got %d", d.Registers)
	}
}

func TestSpeedupAndReductionHelpers(t *testing.T) {
	fr := estimate(t, "figure1", core.FRRA{})
	cpa := estimate(t, "figure1", core.CPARA{})
	if s := cpa.Speedup(fr); s <= 0 {
		t.Errorf("speedup = %v", s)
	}
	if r := cpa.CycleReductionPct(fr); r < 0 || r > 100 {
		t.Errorf("cycle reduction = %v%%", r)
	}
	if fr.CycleReductionPct(fr) != 0 {
		t.Error("self reduction must be 0")
	}
}

// TestClockDegradationBounded: across the suite, CPA-RA's clock penalty vs
// FR-RA stays within the paper's ballpark (single digits to low teens %).
func TestClockDegradationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for _, k := range kernels.All() {
		fr, err := Estimate(k, core.FRRA{}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cpa, err := Estimate(k, core.CPARA{}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pct := 100 * (cpa.ClockNs - fr.ClockNs) / fr.ClockNs
		if pct < -1 || pct > 20 {
			t.Errorf("%s: clock degradation %.1f%% outside [-1,20]", k.Name, pct)
		}
	}
}

// TestScheduleRealizePerDevice: one schedule realized on each device gives
// the design a full estimate for that device gives, and scheduling reads
// no device — a schedule taken under a device that fits nothing realizes
// like one taken under the paper's target.
func TestScheduleRealizePerDevice(t *testing.T) {
	k := kernels.FIR()
	an, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Device = fpga.Device{Name: "none"}
	for _, alg := range core.All() {
		s, err := an.Schedule(alg, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, dev := range append(fpga.Devices(), fpga.Device{Name: "tiny", Slices: 100, BlockRAMs: 1, BlockRAMBits: 4096}) {
			devOpt := DefaultOptions()
			devOpt.Device = dev
			want, wantErr := an.Estimate(alg, devOpt)
			got, gotErr := an.Realize(&s, dev)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s on %s: Realize error %v, Estimate %v", alg.Name(), dev.Name, gotErr, wantErr)
				continue
			}
			if wantErr == nil && (got.Registers != want.Registers || got.Cycles != want.Cycles || got.MemCycles != want.MemCycles ||
				got.ClockNs != want.ClockNs || got.TimeUs != want.TimeUs || got.Slices != want.Slices ||
				got.SliceUtil != want.SliceUtil || got.RAMs != want.RAMs || got.Algorithm != want.Algorithm) {
				t.Errorf("%s on %s: Realize %+v, Estimate %+v", alg.Name(), dev.Name, got, want)
			}
		}
	}
}

// schedulePortfolio schedules every allocator of algs in list order, as
// the sweep engine does for a portfolio point.
func schedulePortfolio(an *Analysis, algs []core.Allocator, opt Options) []Member {
	ms := make([]Member, len(algs))
	for i, alg := range algs {
		ms[i].Schedule, ms[i].Err = an.Schedule(alg, opt, nil)
	}
	return ms
}

// TestRealizePortfolioErrors: a portfolio point fails only when every
// member fails on the device, with the members' distinct errors in list
// order; an empty portfolio is an error of its own.
func TestRealizePortfolioErrors(t *testing.T) {
	an, err := Analyze(kernels.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Rmax = 3 // figure1 has 5 references: every allocator refuses
	ms := schedulePortfolio(an, core.All(), opt)
	_, _, err = an.RealizePortfolio(ms, fpga.XCV1000())
	want := "hls: figure1: every portfolio allocator failed: " + ms[0].Err.Error()
	if err == nil || err.Error() != want {
		t.Errorf("infeasible portfolio error %v, want %q", err, want)
	}
	opt.Rmax = 64
	ms = schedulePortfolio(an, core.All(), opt)
	tiny := fpga.Device{Name: "tiny", Slices: 10, BlockRAMs: 1, BlockRAMBits: 4096}
	if _, _, err := an.RealizePortfolio(ms, tiny); err == nil || !strings.Contains(err.Error(), "every portfolio allocator failed") {
		t.Errorf("portfolio on a 10-slice device: %v", err)
	}
	best, members, err := an.RealizePortfolio(ms, fpga.XCV1000())
	if err != nil || best == nil || len(members) != len(ms) {
		t.Errorf("portfolio on XCV1000: best %v, %d members, %v", best, len(members), err)
	}
	if _, _, err := an.RealizePortfolio(nil, fpga.XCV1000()); err == nil || err.Error() != "hls: figure1: empty allocator portfolio" {
		t.Errorf("empty portfolio: %v", err)
	}
}
