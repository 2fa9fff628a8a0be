package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/reuse"
	"repro/internal/scalarrepl"
)

func planFor(t *testing.T, k kernels.Kernel, alg core.Allocator) (*ir.Nest, *scalarrepl.Plan) {
	t.Helper()
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := alg.Allocate(prob)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	return k.Nest, plan
}

// TestGeneratedCodePreservesSemantics: for every kernel and every
// allocator, the generated storage-explicit program computes the same
// memory image as the reference interpreter.
func TestGeneratedCodePreservesSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel sweep skipped in -short mode")
	}
	names := []string{"figure1", "fir", "decfir", "mat", "pat"}
	for _, name := range names {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range core.All() {
			nest, plan := planFor(t, k, alg)
			stats, err := Verify(nest, plan, 21)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg.Name(), err)
			}
			if plan.TotalRegisters() > len(plan.Order()) && stats.RegisterReads+stats.RegisterWrites == 0 {
				t.Errorf("%s/%s: plan has registers but generated code never used them", name, alg.Name())
			}
		}
	}
}

// TestGeneratedListingStructure: the listing declares register banks,
// contains the peeled transfer comments and guards partial windows with
// the predication the paper describes.
func TestGeneratedListingStructure(t *testing.T) {
	k := kernels.Figure1()
	nest, plan := planFor(t, k, core.CPARA{})
	prog, err := Generate(nest, plan)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.String()
	for _, frag := range []string{
		"reg8 r_a[16]",        // a's partial window bank
		"reg8 r_b[16]",        // b's partial window bank
		"reg8 r_d[30]",        // d's full bank
		"prologue: fill r_a",  // pre-peeled loads
		"epilogue: drain r_d", // back-peeled stores
		// predicated partial access through a rotating bank
		"(k < 16 ? r_a[(k) % 16] : a[k])",
		// b's strided window collides mod 16: ordinal-addressed bank
		"(k < 16 ? r_b[k] : b[k][j])",
		// d's full bank rotates by its flat address
		"r_d[(30*i + k) % 30]",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("listing missing %q:\n%s", frag, s)
		}
	}
	// c and e are uncovered: no banks for them.
	if strings.Contains(s, "r_c") || strings.Contains(s, "r_e") {
		t.Errorf("uncovered references must not get register banks:\n%s", s)
	}
}

// TestRunStatsTraffic pins the generated program's RAM traffic. The
// direct-mapped register banks the generated code uses refill the b window
// on every one of the 40 j sweeps (16 × 40 = 640 loads, plus a's one-time
// 16): slightly more traffic than sched's associative min-flat file (which
// happens to keep 15 of b's last-column elements across the i boundary) —
// two valid register organizations; the semantic check is the invariant.
func TestRunStatsTraffic(t *testing.T) {
	k := kernels.Figure1()
	nest, plan := planFor(t, k, core.CPARA{})
	stats, err := Verify(nest, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrologueLoads != 656 {
		t.Errorf("prologue/refill loads = %d, want 656", stats.PrologueLoads)
	}
	if stats.EpilogueStores != 60 {
		t.Errorf("epilogue stores = %d, want 60 (d's window per i)", stats.EpilogueStores)
	}
	wantRAMReads := 1200 + 2*560 + 656 // c misses + a,b misses + fills
	if stats.RAMReads != wantRAMReads {
		t.Errorf("RAM reads = %d, want %d", stats.RAMReads, wantRAMReads)
	}
	if stats.RAMWrites != 1200+60 { // e misses + d drain
		t.Errorf("RAM writes = %d, want %d", stats.RAMWrites, 1260)
	}
}

// TestRandomPlansProperty: random feasible β vectors on the running
// example always generate semantics-preserving code.
func TestRandomPlansProperty(t *testing.T) {
	k := kernels.Figure1()
	infos, err := reuse.Analyze(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		beta := make([]int, len(infos))
		for i, inf := range infos {
			beta[i] = 1 + rng.Intn(inf.Nu)
		}
		plan, err := scalarrepl.NewPlan(k.Nest, infos, beta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(k.Nest, plan, int64(trial)); err != nil {
			t.Fatalf("trial %d (β=%v): %v", trial, beta, err)
		}
	}
}

// TestSlidingWindowCodegen: the FIR window with every partial coverage.
func TestSlidingWindowCodegen(t *testing.T) {
	k := kernels.FIR()
	infos, err := reuse.Analyze(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	for _, bx := range []int{2, 7, 16, 31, 32} {
		byKey := map[string]int{"x[i + k]": bx, "c[k]": 32, "y[i]": 1}
		beta := make([]int, len(infos))
		for i, inf := range infos {
			beta[i] = byKey[inf.Key()]
		}
		plan, err := scalarrepl.NewPlan(k.Nest, infos, beta)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(k.Nest, plan, 5); err != nil {
			t.Fatalf("β(x)=%d: %v", bx, err)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, nil); err == nil {
		t.Fatal("nil inputs should fail")
	}
}

// TestRotatingBankCapturesWindowReuse: with rotation, the generated FIR
// code's fill traffic collapses to the associative file's level — one fresh
// element per output instead of a full window refill (31,776 → 2,046).
func TestRotatingBankCapturesWindowReuse(t *testing.T) {
	k, err := kernels.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	nest, plan := planFor(t, k, core.CPARA{})
	x := plan.ByKey("x[i + k]")
	if x == nil || !x.RotatingSlots() {
		t.Fatal("FIR window bank should rotate")
	}
	stats, err := Verify(nest, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	// x: 31 cold + 991 fresh = 1022; c: 32 cold; y: one fill per output.
	if want := 1022 + 32 + 992; stats.PrologueLoads != want {
		t.Errorf("fills = %d, want %d (rotation must capture the sliding window)", stats.PrologueLoads, want)
	}
}
