package transform

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/reuse"
)

// interpAll runs a sequence of nests over one store.
func interpAll(t *testing.T, store *ir.Store, nests ...*ir.Nest) {
	t.Helper()
	for _, n := range nests {
		if _, err := ir.Interp(n, store); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPeelOuterPreservesSemantics: prologue-then-remainder equals the
// original for every legal peel count.
func TestPeelOuterPreservesSemantics(t *testing.T) {
	k := kernels.Figure1()
	for count := 1; count < k.Nest.Loops[0].Trip(); count++ {
		pro, rest, err := PeelOuter(k.Nest, count)
		if err != nil {
			t.Fatal(err)
		}
		ref := ir.NewStore()
		ref.RandomizeInputs(k.Nest, 5)
		split := ref.Clone()
		interpAll(t, ref, k.Nest)
		interpAll(t, split, pro, rest)
		if eq, diff := ref.Equal(split); !eq {
			t.Fatalf("peel %d diverged: %s", count, diff)
		}
		if pro.Loops[0].Trip() != count {
			t.Errorf("prologue trip = %d, want %d", pro.Loops[0].Trip(), count)
		}
		if pro.Loops[0].Trip()+rest.Loops[0].Trip() != k.Nest.Loops[0].Trip() {
			t.Error("peel lost iterations")
		}
	}
}

func TestPeelOuterRejectsBadCounts(t *testing.T) {
	k := kernels.Figure1()
	for _, count := range []int{0, -1, 2, 100} {
		if _, _, err := PeelOuter(k.Nest, count); err == nil {
			t.Errorf("count %d should be rejected (trip is 2)", count)
		}
	}
}

// TestPeelStriddenLoop: peeling respects non-unit outer steps.
func TestPeelStriddenLoop(t *testing.T) {
	x := ir.NewArray("x", 8, 32)
	y := ir.NewArray("y", 8, 32)
	n := &ir.Nest{
		Name:  "stride",
		Loops: []ir.Loop{{Var: "i", Lo: 0, Hi: 31, Step: 2}},
		Body:  []*ir.Assign{{LHS: ir.Ref(y, ir.AffVar("i")), RHS: ir.Ref(x, ir.AffVar("i"))}},
	}
	pro, rest, err := PeelOuter(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pro.Loops[0].Hi != 6 || rest.Loops[0].Lo != 6 {
		t.Fatalf("split at %d/%d, want 6/6", pro.Loops[0].Hi, rest.Loops[0].Lo)
	}
	ref := ir.NewStore()
	ref.RandomizeInputs(n, 6)
	split := ref.Clone()
	interpAll(t, ref, n)
	interpAll(t, split, pro, rest)
	if eq, diff := ref.Equal(split); !eq {
		t.Fatal(diff)
	}
}

// checkKeys asserts that every reference of n carries the key its
// rendering spells: Unroll rebuilds each shifted reference through ir.Ref,
// which renders the key once.
func checkKeys(t *testing.T, n *ir.Nest) {
	t.Helper()
	for _, u := range n.RefUses() {
		if k, s := u.Ref.Key(), u.Ref.String(); k != s {
			t.Errorf("%s: reference key %q, rendering %q", n.Name, k, s)
		}
	}
}

// TestUnrollPreservesSemantics for factors 2, 4, 8 on FIR.
func TestUnrollPreservesSemantics(t *testing.T) {
	k := kernels.FIR()
	for _, f := range []int{2, 4, 8} {
		u, err := Unroll(k.Nest, f)
		if err != nil {
			t.Fatal(err)
		}
		checkKeys(t, u)
		ref := ir.NewStore()
		ref.RandomizeInputs(k.Nest, 9)
		un := ref.Clone()
		interpAll(t, ref, k.Nest)
		interpAll(t, un, u)
		if eq, diff := ref.Equal(un); !eq {
			t.Fatalf("unroll %d diverged: %s", f, diff)
		}
		if got := len(u.Body); got != f*len(k.Nest.Body) {
			t.Errorf("unroll %d body has %d statements, want %d", f, got, f*len(k.Nest.Body))
		}
		if u.IterationCount()*f != k.Nest.IterationCount()*1 {
			t.Errorf("unroll %d iteration count %d", f, u.IterationCount())
		}
	}
}

// TestUnrollLoopVarReads: expressions reading the unrolled loop variable
// (IMI's t factor does this at the innermost level after interchange-like
// setups) get the +offset rewrite.
func TestUnrollLoopVarReads(t *testing.T) {
	x := ir.NewArray("x", 16, 16)
	n := &ir.Nest{
		Name:  "varread",
		Loops: []ir.Loop{{Var: "i", Lo: 0, Hi: 16, Step: 1}},
		Body:  []*ir.Assign{{LHS: ir.Ref(x, ir.AffVar("i")), RHS: ir.Bin(ir.OpMul, ir.LoopVar("i"), ir.Lit(3))}},
	}
	u, err := Unroll(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkKeys(t, u)
	ref := ir.NewStore()
	ref.RandomizeInputs(n, 2)
	un := ref.Clone()
	interpAll(t, ref, n)
	interpAll(t, un, u)
	if eq, diff := ref.Equal(un); !eq {
		t.Fatal(diff)
	}
}

func TestUnrollRejects(t *testing.T) {
	k := kernels.FIR()
	if _, err := Unroll(k.Nest, 1); err == nil {
		t.Error("factor 1 rejected")
	}
	if _, err := Unroll(k.Nest, 3); err == nil {
		t.Error("non-dividing factor rejected (trip 32)")
	}
}

// TestUnrolledReuseScales: unrolling FIR by 2 splits the x window into two
// interleaved references whose register requirements sum to the original.
func TestUnrolledReuseScales(t *testing.T) {
	k := kernels.FIR()
	u, err := Unroll(k.Nest, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkKeys(t, u)
	infos, err := reuse.Analyze(u)
	if err != nil {
		t.Fatal(err)
	}
	xTotal, cTotal := 0, 0
	for _, inf := range infos {
		switch inf.Group.Ref.Array.Name {
		case "x":
			xTotal += inf.Nu
		case "c":
			cTotal += inf.Nu
		}
	}
	if xTotal != 32 || cTotal != 32 {
		t.Errorf("unrolled ν totals: x=%d c=%d, want 32/32", xTotal, cTotal)
	}
}

// TestUnrolledPipeline: the unrolled kernel flows through the full
// pipeline; per-result cycles drop (two taps per iteration) while CPA-RA
// still beats FR-RA.
func TestUnrolledPipeline(t *testing.T) {
	k := kernels.FIR()
	u, err := Unroll(k.Nest, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkKeys(t, u)
	uk := kernels.Kernel{Name: "fir_u2", Nest: u, Rmax: k.Rmax, Description: "unrolled FIR"}
	fr, err := hls.Estimate(uk, core.FRRA{}, hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cpa, err := hls.Estimate(uk, core.CPARA{}, hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state cycles must not regress; totals may differ by the
	// cold-start fill/drain overhead (≤ Rmax transfers), which is noise.
	if cpa.Sim.LoopCycles > fr.Sim.LoopCycles {
		t.Errorf("unrolled: CPA loop cycles %d > FR %d", cpa.Sim.LoopCycles, fr.Sim.LoopCycles)
	}
	if cpa.Cycles > fr.Cycles+cpa.Sim.OverheadCycles {
		t.Errorf("unrolled: CPA total %d beyond FR %d plus overhead %d", cpa.Cycles, fr.Cycles, cpa.Sim.OverheadCycles)
	}
	if err := cpa.Verify(3); err != nil {
		t.Fatalf("unrolled CPA design: %v", err)
	}
	base, err := hls.Estimate(k, core.CPARA{}, hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cpa.Cycles >= base.Cycles {
		t.Errorf("unrolling did not reduce total cycles: %d vs %d", cpa.Cycles, base.Cycles)
	}
}

// TestPeelFeedsPipeline: each peeled piece is a valid allocation problem
// of its own (the paper allocates per nest).
func TestPeelFeedsPipeline(t *testing.T) {
	k := kernels.MAT()
	pro, rest, err := PeelOuter(k.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*ir.Nest{pro, rest} {
		p, err := core.NewProblem(n, 64, dfg.DefaultLatencies())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (core.CPARA{}).Allocate(p); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
	}
}

// TestInterchangePreservesSemantics: legal interchanges of MAT (all pairs)
// compute the same result.
func TestInterchangePreservesSemantics(t *testing.T) {
	k := kernels.MAT()
	for _, pq := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		x, err := Interchange(k.Nest, pq[0], pq[1])
		if err != nil {
			t.Fatalf("interchange %v: %v", pq, err)
		}
		ref := ir.NewStore()
		ref.RandomizeInputs(k.Nest, 12)
		got := ref.Clone()
		interpAll(t, ref, k.Nest)
		interpAll(t, got, x)
		if eq, diff := ref.Equal(got); !eq {
			t.Fatalf("interchange %v diverged: %s", pq, diff)
		}
	}
}

// TestInterchangeRejectsWavefront: the dependence checker blocks the
// illegal swap.
func TestInterchangeRejectsWavefront(t *testing.T) {
	n := dsl.MustParse(`
array x[9][9]:8;
for i = 1..8 {
  for j = 0..8 {
    x[i][j] = x[i - 1][j + 1] + 1;
  }
}
`)
	if _, err := Interchange(n, 0, 1); err == nil {
		t.Fatal("wavefront interchange must be rejected")
	}
}

// TestInterchangeMovesReuse: swapping MAT's j and k loops relocates the
// reuse: a[i][k] becomes innermost-invariant (ν drops 32 → 1) while the
// accumulator c[i][j] now needs a row of 32 registers — the ν redistribution
// that makes interchange a lever in the paper's framework.
func TestInterchangeMovesReuse(t *testing.T) {
	k := kernels.MAT()
	x, err := Interchange(k.Nest, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]int{}
	infos, err := reuse.Analyze(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, inf := range infos {
		by[inf.Key()] = inf.Nu
	}
	if by["a[i][k]"] != 1 {
		t.Errorf("after interchange ν(a) = %d, want 1", by["a[i][k]"])
	}
	if by["c[i][j]"] != 32 {
		t.Errorf("after interchange ν(c) = %d, want 32", by["c[i][j]"])
	}
	if by["b[k][j]"] != 1024 {
		t.Errorf("after interchange ν(b) = %d, want 1024", by["b[k][j]"])
	}
}
