package sched

// Differential contracts of the production engine: SimulateGraph's Result
// must equal, field for field, both the fused single-pass walker's and the
// seed reference's — with and without a shared cache — and Transfers must
// equal both oracles' transfer counts, across every Table-1 kernel and
// allocator, random nests, and random single-β plan perturbations (the
// case a shared class-schedule store must get right: one entry changes,
// every class the plans share is served from the store).

import (
	"math/rand"
	"reflect"
	"slices"
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

// checkThreeWay asserts production == fused == seed reference for one
// (nest, plan, cfg): SimulateGraph (with the given shared cache and without
// any cache) against both oracles' Result, and Transfers against both
// oracles' transfer counts.
func checkThreeWay(t *testing.T, label string, cache *simcache.Cache, nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) {
	t.Helper()
	want, err := simulateReference(nest, plan, cfg)
	if err != nil {
		t.Fatalf("%s: seed reference: %v", label, err)
	}
	wantLoads, wantStores := transferCountsReference(nest, plan)
	fused, fusedLoads, fusedStores, err := simulateFused(nest, g, plan, cfg)
	if err != nil {
		t.Fatalf("%s: fused: %v", label, err)
	}
	if !reflect.DeepEqual(fused, want) {
		t.Fatalf("%s: fused diverges from seed\n got %+v\nwant %+v", label, fused, want)
	}
	if fusedLoads != wantLoads || fusedStores != wantStores {
		t.Fatalf("%s: fused transfers %d/%d, seed %d/%d", label, fusedLoads, fusedStores, wantLoads, wantStores)
	}
	plain, err := (&Simulator{}).SimulateGraph(nest, g, plan, cfg)
	if err != nil {
		t.Fatalf("%s: SimulateGraph: %v", label, err)
	}
	if !reflect.DeepEqual(plain, want) {
		t.Fatalf("%s: SimulateGraph (no cache) diverges from seed\n got %+v\nwant %+v", label, plain, want)
	}
	cached, err := (&Simulator{Cache: cache}).SimulateGraph(nest, g, plan, cfg)
	if err != nil {
		t.Fatalf("%s: SimulateGraph cached: %v", label, err)
	}
	if !reflect.DeepEqual(cached, want) {
		t.Fatalf("%s: SimulateGraph (shared cache) diverges from seed\n got %+v\nwant %+v", label, cached, want)
	}
	loads, stores, err := Transfers(nest, plan)
	if err != nil {
		t.Fatalf("%s: Transfers: %v", label, err)
	}
	if loads != wantLoads || stores != wantStores {
		t.Fatalf("%s: Transfers = %d/%d, seed %d/%d", label, loads, stores, wantLoads, wantStores)
	}
}

// TestFragmentSimMatchesOraclesOnKernels runs the three-way differential
// over every Table-1 kernel and allocator with ONE cache shared across all
// of them — cross-plan and cross-kernel class-schedule reuse must never
// leak a stale value into a different plan. Beside the paper's kernels it
// runs an x[i+k]-under-(i,j,k) nest: an interior zero-coefficient loop j
// after a non-zero i, so the region replay revisits one window at every j.
func TestFragmentSimMatchesOraclesOnKernels(t *testing.T) {
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
	cache := simcache.New()
	for _, k := range append(kernels.All(), kernels.Figure1(), interior) {
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
// — windows revisited across an interior loop, underrepresented in unbiased
// draws.
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
		beta := make([]int, len(infos))
		for i, inf := range infos {
			beta[i] = 1 + rng.Intn(inf.Nu+2)
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
// cache exists for: simulate a base plan (warming the store), then flip one
// reference's β at a time and re-simulate. Each perturbed plan shares most
// of its classes with the base — the result must still match the seed
// reference exactly, and so must its transfer counts.
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
		base := make([]int, len(infos))
		for i, inf := range infos {
			base[i] = 1 + rng.Intn(inf.Nu+2)
		}
		basePlan, err := scalarrepl.NewPlan(nest, infos, base)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		cache := simcache.New()
		cfg := DefaultConfig()
		checkThreeWay(t, "base", cache, nest, g, basePlan, cfg)

		for i, inf := range infos {
			for _, delta := range []int{-1, 1, inf.Nu} {
				b := base[i] + delta
				if b < 1 {
					continue
				}
				beta := slices.Clone(base)
				beta[i] = b
				plan, err := scalarrepl.NewPlan(nest, infos, beta)
				if err != nil {
					t.Fatalf("trial %d: %v\n%s", trial, err, nest)
				}
				checkThreeWay(t, "perturbed "+inf.Key(), cache, nest, g, plan, cfg)
			}
		}
	}
}

// TestClassCacheReusesSchedules pins the reuse claim down with counters:
// re-simulating the same plan schedules nothing new, a single-β
// perturbation schedules exactly the classes no earlier plan produced, and
// the simulator never looks up an entry fragment — the estimate does not
// replay transfers.
func TestClassCacheReusesSchedules(t *testing.T) {
	k := kernels.FIR()
	g, err := dfg.Build(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := reuse.Analyze(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	beta := make([]int, len(infos))
	for i, inf := range infos {
		beta[i] = max(2, inf.Nu/2)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, infos, beta)
	if err != nil {
		t.Fatal(err)
	}
	cache := simcache.New()
	sim := &Simulator{Cache: cache}
	base, err := sim.SimulateGraph(k.Nest, g, plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Snapshot()
	if warm.ClassMisses != int64(len(base.Classes)) {
		t.Fatalf("cold cache scheduled %d classes, the plan has %d: %+v", warm.ClassMisses, len(base.Classes), warm)
	}

	// Identical plan again: every class is a hit.
	if _, err := sim.SimulateGraph(k.Nest, g, plan, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	again := cache.Snapshot()
	if again.ClassMisses != warm.ClassMisses || again.ClassHits != warm.ClassHits+int64(len(base.Classes)) {
		t.Fatalf("re-simulating an identical plan rescheduled classes: %+v -> %+v", warm, again)
	}

	// Single-β perturbation: only the classes the base plan lacks miss.
	beta[0]++
	plan2, err := scalarrepl.NewPlan(k.Nest, infos, beta)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.SimulateGraph(k.Nest, g, plan2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range base.Classes {
		seen[c.Signature] = true
	}
	fresh := int64(0)
	for _, c := range res2.Classes {
		if !seen[c.Signature] {
			fresh++
		}
	}
	after := cache.Snapshot()
	if got := after.ClassMisses - again.ClassMisses; got != fresh {
		t.Fatalf("single-β perturbation scheduled %d classes, %d are new (%+v -> %+v)", got, fresh, again, after)
	}
	if after.EntryHits+after.EntryMisses != 0 {
		t.Fatalf("the simulator looked up entry fragments: %+v", after)
	}
}

// TestWarmCacheHitsDoNotAllocate: a settled ClassLen hit made from this
// side of the package boundary, with a compute closure that captures
// locals as classLen's does, allocates nothing. The closure stays on the
// caller's stack only while escape analysis can see through simcache's
// generic lookup; a lookup written as a generic function behind the
// inlined ClassLen wrapper reads allocations here.
func TestWarmCacheHitsDoNotAllocate(t *testing.T) {
	cache := simcache.New()
	cl := simcache.ClassLen{Iter: 4, Mem: 2}
	var err error
	lookup := func() {
		_, err = cache.ClassLen("class", func() (simcache.ClassLen, error) { return cl, nil })
	}
	lookup() // settle the key
	if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
		t.Fatalf("warm ClassLen hits allocate %.1f/op, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Snapshot(); s.ClassMisses != 1 || s.ClassHits != 101 {
		t.Fatalf("stats %+v, want one miss and 101 settled hits", s)
	}
}

// fragmentInputs builds the per-entry fragment inputs of a kernel's CPA-RA
// plan — the tests below drive computeFragment directly.
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

// TestSimulateGraphRejectsBadSteps: a hand-built nest with a zero or
// negative step must produce an error, not an endless walk, from both
// SimulateGraph and Transfers. (Validated construction paths — the DSL
// parser, ir.NewNest, dfg.Build — reject such nests earlier; this guards
// the entries that trust a prebuilt graph or nest.)
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
		if _, _, err := Transfers(bad, plan); err == nil {
			t.Fatalf("Transfers accepted step %d", step)
		}
	}
}

// TestFragmentValueStability pins one fragment value and the plan total it
// sums into, so a change to the replay shows as a number, not only as an
// oracle disagreement.
func TestFragmentValueStability(t *testing.T) {
	k := kernels.FIR()
	plan, hitAt, pats := fragmentInputs(t, k)
	e := plan.ByKey("x[i + k]")
	var idx int
	for i, x := range plan.Order() {
		if x == e {
			idx = i
		}
	}
	// The sliding FIR window loads each of the 1023 distinct x elements
	// once (31 covered at a time) and never writes back.
	if loads, stores := computeFragment(k.Nest, e, pats[e.Info.Key()], hitAt[idx]); loads != 1022 || stores != 0 {
		t.Fatalf("fragment value drifted: got %d/%d, want 1022/0", loads, stores)
	}
	loads, stores, err := Transfers(k.Nest, plan)
	if err != nil {
		t.Fatal(err)
	}
	if wl, ws := transferCountsReference(k.Nest, plan); loads != wl || stores != ws {
		t.Fatalf("Transfers = %d/%d, seed %d/%d", loads, stores, wl, ws)
	}
}
