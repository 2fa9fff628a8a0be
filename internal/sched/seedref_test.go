package sched

// The seed implementation of the simulator walked the full iteration space
// twice per design point: once to weight the iteration classes (allocating
// a map environment and a signature string per iteration) and once in
// transferCounts to replay the register-file transfer protocol. Both walks
// are kept here, verbatim, as the differential oracles of the production
// engine: SimulateGraph must reproduce the first walk's Result byte for
// byte on every kernel, every allocator and every scheduler configuration,
// and Transfers the second walk's counts (checkThreeWay). The first walk
// schedules its classes with the seed's map-keyed ASAP list scheduler,
// kept verbatim too (scheduleClassReference), so the oracle checks the
// production scheduler rather than calling it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
	"repro/internal/scalarrepl"
)

// simulateReference is the seed's class-weighting pass and schedule. The
// transfer replay, its second pass, is transferCountsReference.
func simulateReference(nest *ir.Nest, plan *scalarrepl.Plan, cfg Config) (*Result, error) {
	if cfg.PortsPerRAM < 1 {
		return nil, fmt.Errorf("sched: PortsPerRAM must be ≥1, got %d", cfg.PortsPerRAM)
	}
	g, err := dfg.Build(nest)
	if err != nil {
		return nil, err
	}
	// Weight the iteration classes by walking the whole iteration space.
	counts := map[string]int{}
	env := map[string]int{}
	var walk func(depth int)
	walk = func(depth int) {
		if depth == nest.Depth() {
			counts[plan.HitKeys(env)]++
			return
		}
		l := nest.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			walk(depth + 1)
		}
	}
	walk(0)

	res := &Result{}
	order := plan.Order()
	nodesPerKey := map[string]int{}
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindRef {
			nodesPerKey[n.RefKey]++
		}
	}
	var sigs []string
	for sig := range counts {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		hit := map[string]bool{}
		ram := 0
		for i, e := range order {
			h := sig[i] == '1'
			hit[e.Info.Key()] = h
			if !h {
				ram += nodesPerKey[e.Info.Key()]
			}
		}
		iterLen, err := scheduleClassReference(g, hit, cfg, false)
		if err != nil {
			return nil, err
		}
		memLen, err := scheduleClassReference(g, hit, cfg, true)
		if err != nil {
			return nil, err
		}
		if iterLen < 1 {
			iterLen = 1
		}
		cs := ClassStat{
			Signature:  sig,
			Count:      counts[sig],
			IterCycles: iterLen,
			MemCycles:  memLen,
			RAMPerIter: ram,
		}
		res.Classes = append(res.Classes, cs)
		res.LoopCycles += cs.Count * cs.IterCycles
		res.MemCycles += cs.Count * cs.MemCycles
		res.RAMAccesses += cs.Count * cs.RAMPerIter
	}
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i].Count > res.Classes[j].Count })

	res.OverheadCycles = overheadCycles(plan, cfg)
	res.TotalCycles = res.LoopCycles + res.OverheadCycles
	return res, nil
}

// scheduleClassReference is the seed's class scheduler: ASAP list
// scheduling of the body DFG for one residency pattern keyed by reference
// key, with per-array port occupancy in nested maps. It returns the
// schedule length.
func scheduleClassReference(g *dfg.Graph, hit map[string]bool, cfg Config, zeroOps bool) (int, error) {
	order, err := g.Topo()
	if err != nil {
		return 0, err
	}
	lat := func(n *dfg.Node) int {
		if n.Kind == dfg.KindRef {
			if hit[n.RefKey] {
				return 0
			}
			return cfg.Lat.Mem
		}
		if zeroOps {
			return 0
		}
		return cfg.Lat.OpLat(n.Op)
	}
	finish := make([]int, len(g.Nodes))
	// portUse[array][cycle] counts accesses occupying the array's RAM.
	portUse := map[string]map[int]int{}
	length := 0
	for _, id := range order {
		n := g.Nodes[id]
		ready := 0
		for _, p := range g.Pred[id] {
			if finish[p] > ready {
				ready = finish[p]
			}
		}
		l := lat(n)
		start := ready
		if n.Kind == dfg.KindRef && !hit[n.RefKey] && l > 0 {
			arr := n.Ref.Array.Name
			if portUse[arr] == nil {
				portUse[arr] = map[int]int{}
			}
			// Find the earliest start where all l cycles have a free port.
			for {
				ok := true
				for c := start; c < start+l; c++ {
					if portUse[arr][c] >= cfg.PortsPerRAM {
						ok = false
						break
					}
				}
				if ok {
					break
				}
				start++
			}
			for c := start; c < start+l; c++ {
				portUse[arr][c]++
			}
		}
		finish[id] = start + l
		if finish[id] > length {
			length = finish[id]
		}
	}
	return length, nil
}

// transferCountsReference is the seed transfer-protocol replay: a second
// full iteration-space walk over map environments, and the costlier one
// (each eviction scans the whole dirty map).
func transferCountsReference(nest *ir.Nest, plan *scalarrepl.Plan) (loads, stores int) {
	type file struct {
		entry      *scalarrepl.Entry
		dirty      map[int]bool
		lastRegion int
	}
	files := map[string]*file{}
	for _, e := range plan.Order() {
		if e.Coverage > 0 {
			files[e.Info.Key()] = &file{entry: e, dirty: map[int]bool{}, lastRegion: -1}
		}
	}
	flush := func(f *file) {
		for flat, d := range f.dirty {
			if d {
				stores++
			}
			delete(f.dirty, flat)
		}
	}
	evictIfFull := func(f *file) {
		if len(f.dirty) < f.entry.Coverage {
			return
		}
		victim, first := 0, true
		for flat := range f.dirty {
			if first || flat < victim {
				victim, first = flat, false
			}
		}
		if f.dirty[victim] {
			stores++
		}
		delete(f.dirty, victim)
	}
	access := func(r *ir.ArrayRef, env map[string]int, isWrite bool) {
		f := files[r.Key()]
		if f == nil || !f.entry.Hit(env) {
			return
		}
		flat := 0
		for dim, ix := range r.Index() {
			flat = flat*r.Array.Dims[dim] + ix.Eval(env)
		}
		if _, resident := f.dirty[flat]; !resident {
			evictIfFull(f)
			if !isWrite {
				loads++
			}
			f.dirty[flat] = false
		}
		if isWrite {
			f.dirty[flat] = true
		}
	}
	env := map[string]int{}
	var walk func(depth int)
	walk = func(depth int) {
		if depth == nest.Depth() {
			for _, f := range files {
				r := f.entry.RegionOf(nest, env)
				if f.lastRegion != r {
					if f.lastRegion >= 0 {
						flush(f)
					}
					f.lastRegion = r
				}
			}
			for _, st := range nest.Body {
				ir.WalkExpr(st.RHS, func(e ir.Expr) {
					if r, ok := e.(*ir.ArrayRef); ok {
						access(r, env, false)
					}
				})
				access(st.LHS, env, true)
			}
			return
		}
		l := nest.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			walk(depth + 1)
		}
	}
	walk(0)
	for _, f := range files {
		flush(f)
	}
	return loads, stores
}

// referencePlans builds the storage plans the differential cases exercise:
// every allocator at the kernel's own budget plus a saturating budget.
func referencePlans(t *testing.T, nest *ir.Nest, rmax int, lat dfg.Latencies) []*scalarrepl.Plan {
	t.Helper()
	var plans []*scalarrepl.Plan
	for _, budget := range []int{rmax, 4 * rmax} {
		prob, err := core.NewProblem(nest, budget, lat)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range core.All() {
			alloc, err := alg.Allocate(prob)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := scalarrepl.NewPlan(nest, prob.Infos, alloc.Beta)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
	}
	return plans
}

// TestSimulateGraphMatchesSeedReference is the estimate's differential
// contract: on every Table-1 kernel (plus the running example), for every
// allocator, budget and scheduler configuration exercised, SimulateGraph
// reproduces the seed Result exactly — classes, counts, cycles and all.
// Transfers do not depend on the scheduler configuration; checkThreeWay
// pins them on the same kernels and plans.
func TestSimulateGraphMatchesSeedReference(t *testing.T) {
	cfgs := []Config{DefaultConfig()}
	for _, mem := range []int{2, 4} {
		c := DefaultConfig()
		c.Lat.Mem = mem
		cfgs = append(cfgs, c)
	}
	dual := DefaultConfig()
	dual.PortsPerRAM = 2
	cfgs = append(cfgs, dual)

	for _, k := range append(kernels.All(), kernels.Figure1()) {
		if testing.Short() && k.Nest.IterationCount() > 100000 {
			continue
		}
		g, err := dfg.Build(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			// The seed oracle walks the whole space per plan; sweep the
			// non-default configs only on the small kernels to keep the
			// differential affordable. Every kernel still runs the default.
			if ci > 0 && k.Nest.IterationCount() > 50000 {
				continue
			}
			for pi, plan := range referencePlans(t, k.Nest, k.Rmax, cfg.Lat) {
				want, err := simulateReference(k.Nest, plan, cfg)
				if err != nil {
					t.Fatalf("%s reference: %v", k.Name, err)
				}
				got, err := SimulateGraph(k.Nest, g, plan, cfg)
				if err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s plan %d mem=%d ports=%d: SimulateGraph diverges from seed\n got %+v\nwant %+v",
						k.Name, pi, cfg.Lat.Mem, cfg.PortsPerRAM, got, want)
				}
			}
		}
	}
}

// TestSimulateGraphMatchesSeedOnRandomNests extends the differential to
// randomly generated programs — shapes no hand-written kernel covers
// (write-first references, aliased arrays, strided loops) — for the
// estimate and the transfer counts both.
func TestSimulateGraphMatchesSeedOnRandomNests(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		nest := irgen.Nest(rng, irgen.Config{})
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
		want, err := simulateReference(nest, plan, cfg)
		if err != nil {
			t.Fatalf("trial %d reference: %v\n%s", trial, err, nest)
		}
		got, err := Simulate(nest, plan, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d: Simulate diverges from seed\n got %+v\nwant %+v\n%s", trial, got, want, nest)
		}
		loads, stores, err := Transfers(nest, plan)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		if wl, ws := transferCountsReference(nest, plan); loads != wl || stores != ws {
			t.Errorf("trial %d: Transfers = %d/%d, seed %d/%d\n%s", trial, loads, stores, wl, ws, nest)
		}
	}
}
