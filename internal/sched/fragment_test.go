package sched

// Differential contracts of the compositional engine (fragment.go): the
// fragment-assembled Result must equal, field for field, both the fused
// single-pass walker's and the seed two-pass reference's — with and
// without a shared cache, across every Table-1 kernel and allocator,
// random nests, and random single-β plan perturbations (the exact case the
// cross-plan fragment reuse must get right: one entry changes, everything
// else is served from the store).

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
	"repro/internal/scalarrepl"
	"repro/internal/simcache"
)

// checkThreeWay asserts compositional (with the given shared cache and
// without any cache) == fused == seed reference for one (nest, plan, cfg).
func checkThreeWay(t *testing.T, label string, cache *simcache.Cache, nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) {
	t.Helper()
	want, err := simulateReference(nest, plan, cfg)
	if err != nil {
		t.Fatalf("%s: seed reference: %v", label, err)
	}
	fused, err := simulateFused(nest, g, plan, cfg)
	if err != nil {
		t.Fatalf("%s: fused: %v", label, err)
	}
	if !reflect.DeepEqual(fused, want) {
		t.Fatalf("%s: fused diverges from seed\n got %+v\nwant %+v", label, fused, want)
	}
	plain, err := (&Simulator{}).SimulateGraph(nest, g, plan, cfg)
	if err != nil {
		t.Fatalf("%s: compositional: %v", label, err)
	}
	if !reflect.DeepEqual(plain, want) {
		t.Fatalf("%s: compositional (no cache) diverges from seed\n got %+v\nwant %+v", label, plain, want)
	}
	cached, err := (&Simulator{Cache: cache}).SimulateGraph(nest, g, plan, cfg)
	if err != nil {
		t.Fatalf("%s: compositional cached: %v", label, err)
	}
	if !reflect.DeepEqual(cached, want) {
		t.Fatalf("%s: compositional (shared cache) diverges from seed\n got %+v\nwant %+v", label, cached, want)
	}
}

// TestFragmentSimMatchesOraclesOnKernels runs the three-way differential
// over every Table-1 kernel and allocator with ONE cache shared across all
// of them — cross-plan and cross-kernel fragment reuse must never leak a
// stale value into a different plan.
func TestFragmentSimMatchesOraclesOnKernels(t *testing.T) {
	cache := simcache.New()
	for _, k := range append(kernels.All(), kernels.Figure1()) {
		if testing.Short() && k.Nest.IterationCount() > 100000 {
			continue
		}
		g, err := dfg.Build(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		for _, plan := range referencePlans(t, k.Nest, k.Rmax, cfg.Lat) {
			checkThreeWay(t, k.Name, cache, k.Nest, g, plan, cfg)
		}
	}
}

// TestFragmentSimMatchesOraclesOnRandomNests extends the differential to
// random programs and scheduler configurations, still sharing one cache.
// Odd trials bias the generator toward interior zero-coefficient references
// (a non-innermost variable dropped from a reference with 35% probability)
// — the shapes the per-subtree extrapolation collapses, underrepresented in
// unbiased draws.
func TestFragmentSimMatchesOraclesOnRandomNests(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	cache := simcache.New()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < trials; trial++ {
		gcfg := irgen.Config{}
		if trial%2 == 1 {
			gcfg.InteriorZeroProb = 0.35
		}
		nest := irgen.Nest(rng, gcfg)
		g, err := dfg.Build(nest)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		beta := map[string]int{}
		for _, inf := range infos {
			beta[inf.Key()] = 1 + rng.Intn(inf.Nu+2)
		}
		plan, err := scalarrepl.NewPlan(nest, infos, beta)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		cfg := DefaultConfig()
		cfg.Lat.Mem = 1 + rng.Intn(3)
		cfg.PortsPerRAM = 1 + rng.Intn(2)
		checkThreeWay(t, nest.Name, cache, nest, g, plan, cfg)
	}
}

// TestFragmentSimSingleBetaPerturbations drives the incremental case the
// caches exist for: simulate a base plan (warming the store), then flip one
// reference's β at a time and re-simulate. Each perturbed plan shares every
// unchanged entry's fragment with the base — the result must still match
// the seed reference exactly, and unchanged entries must not recompute.
func TestFragmentSimSingleBetaPerturbations(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		gcfg := irgen.Config{}
		if trial%2 == 1 {
			gcfg.InteriorZeroProb = 0.35
		}
		nest := irgen.Nest(rng, gcfg)
		g, err := dfg.Build(nest)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		base := map[string]int{}
		for _, inf := range infos {
			base[inf.Key()] = 1 + rng.Intn(inf.Nu+2)
		}
		basePlan, err := scalarrepl.NewPlan(nest, infos, base)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		cache := simcache.New()
		cfg := DefaultConfig()
		checkThreeWay(t, "base", cache, nest, g, basePlan, cfg)

		for _, inf := range infos {
			for _, delta := range []int{-1, 1, inf.Nu} {
				b := base[inf.Key()] + delta
				if b < 1 {
					continue
				}
				beta := map[string]int{}
				for k, v := range base {
					beta[k] = v
				}
				beta[inf.Key()] = b
				plan, err := scalarrepl.NewPlan(nest, infos, beta)
				if err != nil {
					t.Fatalf("trial %d: %v\n%s", trial, err, nest)
				}
				checkThreeWay(t, "perturbed "+inf.Key(), cache, nest, g, plan, cfg)
			}
		}
	}
}

// TestFragmentCacheReusesUnchangedEntries pins the reuse claim down with
// counters: re-simulating the same plan computes nothing new, and a
// single-β perturbation recomputes at most the perturbed entry's fragment
// (plus any genuinely new class schedules).
func TestFragmentCacheReusesUnchangedEntries(t *testing.T) {
	k := kernels.FIR()
	g, err := dfg.Build(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := reuse.Analyze(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	beta := map[string]int{}
	for _, inf := range infos {
		beta[inf.Key()] = max(2, inf.Nu/2)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, infos, beta)
	if err != nil {
		t.Fatal(err)
	}
	cache := simcache.New()
	sim := &Simulator{Cache: cache}
	if _, err := sim.SimulateGraph(k.Nest, g, plan, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	warm := cache.Snapshot()
	if warm.EntryMisses == 0 {
		t.Fatalf("expected fragment computations on a cold cache, got %+v", warm)
	}

	// Identical plan again: zero new computations of any kind.
	if _, err := sim.SimulateGraph(k.Nest, g, plan, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	again := cache.Snapshot()
	if again.EntryMisses != warm.EntryMisses || again.ClassMisses != warm.ClassMisses {
		t.Fatalf("re-simulating an identical plan recomputed fragments: %+v -> %+v", warm, again)
	}
	if again.EntryHits <= warm.EntryHits {
		t.Fatalf("re-simulating an identical plan did not hit the fragment cache: %+v -> %+v", warm, again)
	}

	// Single-β perturbation: at most one new fragment.
	pert := infos[0]
	beta[pert.Key()]++
	plan2, err := scalarrepl.NewPlan(k.Nest, infos, beta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.SimulateGraph(k.Nest, g, plan2, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	after := cache.Snapshot()
	if got := after.EntryMisses - again.EntryMisses; got > 1 {
		t.Fatalf("single-β perturbation recomputed %d fragments, want ≤ 1 (%+v -> %+v)", got, again, after)
	}
}

// TestWarmCacheHitsDoNotAllocate: a settled Fragment or ClassLen hit made
// from this side of the package boundary, with compute closures that
// capture locals as SimulateGraph's do, allocates nothing. The closures
// stay on the caller's stack only while escape analysis can see through
// simcache's generic lookup; a lookup written as a generic function behind
// the inlined Fragment/ClassLen wrappers reads 2 allocations here.
func TestWarmCacheHitsDoNotAllocate(t *testing.T) {
	cache := simcache.New()
	frag := simcache.Fragment{Loads: 3, Stores: 1}
	cl := simcache.ClassLen{Iter: 4, Mem: 2}
	var err error
	lookups := func() {
		if _, err = cache.Fragment("fragment", func() (simcache.Fragment, error) { return frag, nil }); err != nil {
			return
		}
		_, err = cache.ClassLen("class", func() (simcache.ClassLen, error) { return cl, nil })
	}
	lookups() // settle both keys
	if allocs := testing.AllocsPerRun(100, lookups); allocs != 0 {
		t.Fatalf("warm Fragment+ClassLen hits allocate %.1f/op, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Snapshot(); s.EntryMisses != 1 || s.ClassMisses != 1 || s.EntryHits != 101 || s.ClassHits != 101 {
		t.Fatalf("stats %+v, want one miss and 101 settled hits per kind", s)
	}
}

// fragmentInputs builds the per-entry fragment inputs of a kernel's CPA-RA
// plan — the regression tests below drive computeFragmentWalked directly.
func fragmentInputs(t *testing.T, k kernels.Kernel) (*scalarrepl.Plan, [][]bool, map[string][]bool) {
	t.Helper()
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	return plan, innerHitVectors(k.Nest, plan.Order()), accessPatterns(k.Nest, plan)
}

// TestInteriorCollapseTriggers pins the extrapolation down with walk
// counters: on BIC (whose img[i+m][j+n] reference has no zero coefficient
// at all, so only the translation-aware per-subtree detector can collapse
// it) and on an x[i+k]-under-(i,j,k) nest (interior zero-coefficient j
// after a non-zero i — the exact shape the leading-prefix collapse missed),
// every covered entry must walk a small fraction of its trip product. The
// three-way differential on the same nests guards exactness.
func TestInteriorCollapseTriggers(t *testing.T) {
	interior := kernels.Kernel{
		Name: "interior",
		Rmax: 64,
		Nest: mustNest(t, "interior", []ir.Loop{
			{Var: "i", Lo: 0, Hi: 64, Step: 1},
			{Var: "j", Lo: 0, Hi: 64, Step: 1},
			{Var: "k", Lo: 0, Hi: 16, Step: 1},
		}, func(arrs map[string]*ir.Array) []*ir.Assign {
			y, x := arrs["y"], arrs["x"]
			ref := ir.Ref(x, ir.AffVar("i").Add(ir.AffVar("k")))
			lhs := ir.Ref(y, ir.AffVar("i"), ir.AffVar("j"))
			return []*ir.Assign{{LHS: lhs, RHS: ir.Bin(ir.OpAdd, lhs.Clone(), ref)}}
		}),
	}
	for _, k := range []kernels.Kernel{kernels.BIC(), interior} {
		plan, hitAt, pats := fragmentInputs(t, k)
		trips := k.Nest.IterationCount()
		collapsed := false
		for i, e := range plan.Order() {
			if e.Coverage == 0 {
				continue
			}
			_, walked, _ := computeFragmentWalked(k.Nest, e, pats[e.Info.Key()], hitAt[i])
			if walked*10 > trips {
				t.Errorf("%s/%s: walked %d of %d iteration points — interior collapse did not trigger",
					k.Name, e.Info.Key(), walked, trips)
			} else {
				collapsed = true
			}
		}
		if !collapsed {
			t.Fatalf("%s: no covered entry exercised the collapse", k.Name)
		}
		g, err := dfg.Build(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		checkThreeWay(t, k.Name, simcache.New(), k.Nest, g, plan, DefaultConfig())
	}
}

// mustNest assembles a validated nest whose array shapes are derived from
// the index ranges (the helper sizes arrays to fit, then ir.NewNest
// validates the result).
func mustNest(t *testing.T, name string, loops []ir.Loop, body func(map[string]*ir.Array) []*ir.Assign) *ir.Nest {
	t.Helper()
	arrs := map[string]*ir.Array{
		"y": ir.NewArray("y", 16, 64, 64),
		"x": ir.NewArray("x", 8, 80),
	}
	n, err := ir.NewNest(name, loops, body(arrs))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFragmentHistoryCapFallsBack shrinks the tracked-state cap to force
// the plain-accumulation fallback and re-runs the kernel differential: past
// the cap the walker must keep producing exact results, just without
// extrapolation.
func TestFragmentHistoryCapFallsBack(t *testing.T) {
	old := maxTrackedStates
	maxTrackedStates = 2
	defer func() { maxTrackedStates = old }()
	for _, k := range []kernels.Kernel{kernels.FIR(), kernels.MAT(), kernels.Figure1()} {
		g, err := dfg.Build(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		for _, plan := range referencePlans(t, k.Nest, k.Rmax, cfg.Lat) {
			checkThreeWay(t, k.Name+"/capped", simcache.New(), k.Nest, g, plan, cfg)
		}
	}
}

// TestSimulateGraphRejectsBadSteps: a hand-built nest with a zero or
// negative step must produce an error, not an endless walk. (Validated
// construction paths — the DSL parser, ir.NewNest, dfg.Build — reject such
// nests earlier; this guards the SimulateGraph entry that trusts a
// prebuilt graph.)
func TestSimulateGraphRejectsBadSteps(t *testing.T) {
	k := kernels.FIR()
	g, err := dfg.Build(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, _ := fragmentInputs(t, k)
	for _, step := range []int{0, -1} {
		bad := &ir.Nest{Name: "bad", Loops: append([]ir.Loop(nil), k.Nest.Loops...), Body: k.Nest.Body}
		bad.Loops[0].Step = step
		if _, err := SimulateGraph(bad, g, plan, DefaultConfig()); err == nil {
			t.Fatalf("SimulateGraph accepted step %d", step)
		}
	}
}

// TestFragmentKeyAndValueStability asserts the simcache compatibility
// contract of the rewrite: fragment keys are unchanged byte for byte (a
// golden pin on the key grammar) and fragment values stay semantically
// identical, so stores written by earlier engine versions remain valid.
func TestFragmentKeyAndValueStability(t *testing.T) {
	k := kernels.FIR()
	plan, hitAt, pats := fragmentInputs(t, k)
	e := plan.ByKey("x[i + k]")
	key := fragmentKey(nestFingerprint(k.Nest), k.Nest, e, pats[e.Info.Key()])
	if want := "0:992:1;0:32:1;|c31,l0,k0,1,1|r"; key != want {
		t.Fatalf("fragment key drifted:\n got %q\nwant %q", key, want)
	}
	var idx int
	for i, x := range plan.Order() {
		if x == e {
			idx = i
		}
	}
	frag := computeFragment(k.Nest, e, pats[e.Info.Key()], hitAt[idx])
	// The sliding FIR window loads each of the 1023 distinct x elements
	// once (31 covered at a time) and never writes back.
	if want := (simcache.Fragment{Loads: 1022, Stores: 0}); frag != want {
		t.Fatalf("fragment value drifted: got %+v, want %+v", frag, want)
	}
}
