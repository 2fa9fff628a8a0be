// Package sched turns a storage plan into cycle counts: it schedules the
// loop body's data-flow graph per iteration class (ASAP list scheduling
// with per-RAM port constraints), weights the classes analytically from the
// per-entry innermost hit vectors, replays each covered entry's
// register<->RAM transfer traffic over one reuse region and scales by the
// region count (fragment.go — the whole estimate is a composition of
// independent per-entry and per-class pieces, memoizable across plans via
// internal/simcache), and prices the cold-start/epilogue overhead. The
// seed's fused full-space walker (iterWalker, walker_test.go) is test
// code: a differential oracle, not a production path.
//
// Two cycle metrics are produced per iteration class and summed:
//
//   - the iteration latency under the full latency model (operators and
//     RAM accesses), which drives the total execution cycle count; and
//   - the memory-level latency (operator latencies zeroed), the paper's
//     Tmem — the cycles the critical path spends waiting on RAM. Accesses
//     to distinct arrays live in distinct RAM blocks and overlap; accesses
//     to the same array serialize on its ports.
//
// The package also provides a functional datapath simulation (funcsim.go)
// that executes the plan with real values — register file, write-backs,
// evictions — and checks the final memory image against the reference
// interpreter, machine-verifying that scalar replacement preserved the
// program's semantics.
package sched

import (
	"sort"

	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/scalarrepl"
)

// Config parameterizes the simulation.
type Config struct {
	Lat dfg.Latencies
	// PortsPerRAM is the number of concurrent accesses one RAM block
	// sustains per cycle (1 = single-ported, 2 = dual-ported Virtex BRAM).
	PortsPerRAM int
}

// DefaultConfig returns single-ported RAMs under the default latency model.
func DefaultConfig() Config {
	return Config{Lat: dfg.DefaultLatencies(), PortsPerRAM: 1}
}

// ClassStat describes one iteration class (one steady-state residency
// pattern) of the simulated loop.
type ClassStat struct {
	Signature  string // one byte per plan entry: '1' register hit, '0' miss
	Count      int    // iterations in this class
	IterCycles int    // scheduled latency, full model
	MemCycles  int    // scheduled latency, operator latencies zeroed
	RAMPerIter int    // RAM accesses issued per iteration
}

// Result aggregates the simulation outcome.
type Result struct {
	// LoopCycles is the steady-state loop latency: Σ class count × length.
	LoopCycles int
	// MemCycles is Tmem: cycles the critical path spends on RAM accesses.
	MemCycles int
	// TransferLoads/TransferStores count the register-file fill and
	// write-back transfers — first-touch loads, sliding-window refills,
	// region flushes and the epilogue drain. In steady state these overlap
	// loop execution through the load/store unit (the RAM ports are idle
	// most cycles), so they are reported as traffic, not stalls.
	TransferLoads  int
	TransferStores int
	// TransferCycles prices the transfer traffic at one RAM access each —
	// an upper bound on the overlap the prefetch unit must hide.
	TransferCycles int
	// OverheadCycles is the non-overlappable part: the cold-start register
	// fill before the first iteration plus the final write-back drain (the
	// paper's pre-peeled loads and epilogue stores).
	OverheadCycles int
	// TotalCycles = LoopCycles + OverheadCycles.
	TotalCycles int
	// RAMAccesses is the dynamic RAM traffic of the steady-state loop
	// (excluding transfers).
	RAMAccesses int
	// Classes lists the iteration classes, densest first.
	Classes []ClassStat
}

// MemPerOuter returns Tmem normalized to one iteration of the outermost
// loop — the granularity the paper's Figure 2(c) walk-through reports.
func (r *Result) MemPerOuter(nest *ir.Nest) int {
	t := nest.Loops[0].Trip()
	if t == 0 {
		return 0
	}
	return r.MemCycles / t
}

// Simulate runs the cycle-level simulation of the nest under the plan. It
// builds the body DFG itself; callers that already hold the graph (the
// memoized hls.Analysis front-end, design-space sweeps) should use
// SimulateGraph and skip the rebuild.
func Simulate(nest *ir.Nest, plan *scalarrepl.Plan, cfg Config) (*Result, error) {
	g, err := dfg.Build(nest)
	if err != nil {
		return nil, err
	}
	return SimulateGraph(nest, g, plan, cfg)
}

// SimulateGraph runs the cycle-level simulation of the nest under the plan
// on a prebuilt (and already validated) body data-flow graph. The estimate
// is assembled compositionally (see fragment.go): class weights come
// analytically from the per-entry innermost hit vectors, each covered
// entry's transfer traffic from an independent one-region replay scaled by
// its region count, and each iteration class is list-scheduled once. The
// graph is only read, so one graph can back any number of concurrent
// simulations. Sweeps that simulate many related plans should share a
// Simulator with a simcache.Cache instead, which additionally memoizes the
// fragments and schedules across plans.
func SimulateGraph(nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) (*Result, error) {
	return (&Simulator{}).SimulateGraph(nest, g, plan, cfg)
}

// classLenFunc returns one iteration class's scheduled lengths (full model,
// memory-level). sig and order give the class's identity for memoized
// implementations; hit is the residency map ScheduleClass consumes.
type classLenFunc func(sig string, hit map[string]bool, order []*scalarrepl.Entry) (iter, mem int, err error)

// assembleResult builds the Result shared by the compositional engine and
// the fused test oracle from the class weights and transfer counts:
// classes are emitted in sorted-signature order, scheduled through
// classLen, then ordered densest first — the exact construction both
// engines must agree on for byte-identical results.
func assembleResult(g *dfg.Graph, plan *scalarrepl.Plan, cfg Config, counts map[string]int, loads, stores int, classLen classLenFunc) (*Result, error) {
	res := &Result{}
	order := plan.Order()
	// RAM traffic counts DFG nodes, not body occurrences: a value written
	// and read back within the iteration is forwarded through the datapath
	// and costs a single RAM transaction when RAM-bound.
	nodesPerKey := map[string]int{}
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindRef {
			nodesPerKey[n.RefKey]++
		}
	}
	sigs := make([]string, 0, len(counts))
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
		iterLen, memLen, err := classLen(sig, hit, order)
		if err != nil {
			return nil, err
		}
		if iterLen < 1 {
			iterLen = 1 // one control state per iteration at minimum
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

	res.TransferLoads, res.TransferStores = loads, stores
	res.TransferCycles = (loads + stores) * cfg.Lat.Mem
	res.OverheadCycles = overheadCycles(plan, cfg)
	res.TotalCycles = res.LoopCycles + res.OverheadCycles
	return res, nil
}

// overheadCycles prices the cold-start fill (covered read-first window
// elements loaded before the loop starts) and the final drain (covered
// written window elements flushed after it ends); everything in between
// overlaps execution.
func overheadCycles(plan *scalarrepl.Plan, cfg Config) int {
	cycles := 0
	for _, e := range plan.Order() {
		if e.Coverage == 0 {
			continue
		}
		window := e.WindowSize()
		fill := e.Coverage
		if fill > window {
			fill = window
		}
		if !e.WriteFirst && e.Info.Group.Reads > 0 {
			cycles += fill * cfg.Lat.Mem
		}
		if e.Info.Group.Writes > 0 {
			cycles += fill * cfg.Lat.Mem
		}
	}
	return cycles
}

// Schedule is the per-node timing of one iteration class: when each DFG
// node starts and finishes, and the overall length.
type Schedule struct {
	Start  []int
	Finish []int
	Length int
}

// scheduleClass performs ASAP list scheduling of the body DFG for one
// residency pattern and returns only the length; ScheduleClass exposes the
// full timing to the RTL builder.
func scheduleClass(g *dfg.Graph, hit map[string]bool, cfg Config, zeroOps bool) (int, error) {
	s, err := ScheduleClass(g, hit, cfg, zeroOps)
	if err != nil {
		return 0, err
	}
	return s.Length, nil
}

// ScheduleClass performs ASAP list scheduling of the body DFG for one
// residency pattern. Register-resident reference nodes are free; RAM-bound
// ones occupy a port of their array's RAM for the access latency. When
// zeroOps is true operator latencies are suppressed, yielding the
// memory-level (Tmem) length of the class.
func ScheduleClass(g *dfg.Graph, hit map[string]bool, cfg Config, zeroOps bool) (*Schedule, error) {
	order, err := g.Topo()
	if err != nil {
		return nil, err
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
	sc := &Schedule{
		Start:  make([]int, len(g.Nodes)),
		Finish: make([]int, len(g.Nodes)),
	}
	finish := sc.Finish
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
		sc.Start[id] = start
		finish[id] = start + l
		if finish[id] > length {
			length = finish[id]
		}
	}
	sc.Length = length
	return sc, nil
}
