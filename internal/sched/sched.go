// Package sched turns a storage plan into cycle counts: it schedules the
// loop body's data-flow graph per iteration class (ASAP list scheduling
// with per-RAM port constraints), weights the classes in closed form from
// each entry's innermost hit threshold, and prices the cold-start/epilogue
// overhead. The estimate is class weights + class schedules + overhead;
// the class schedules are memoizable across plans via internal/simcache.
//
// Register<->RAM transfers overlap loop execution and no cycle count
// includes them, so the estimate never replays them. Transfers
// (fragment.go) counts them on demand: each covered entry's transfer
// protocol replayed over one reuse region and scaled by the region count.
// The seed's two-pass walk (seedref_test.go) and the fused full-space
// walker (iterWalker, walker_test.go) are test code: differential
// oracles, not production paths.
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
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/scalarrepl"
	"repro/internal/simcache"
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
	// OverheadCycles is the non-overlappable part: the cold-start register
	// fill before the first iteration plus the final write-back drain (the
	// paper's pre-peeled loads and epilogue stores).
	OverheadCycles int
	// TotalCycles = LoopCycles + OverheadCycles.
	TotalCycles int
	// RAMAccesses is the dynamic RAM traffic of the steady-state loop
	// (excluding the register-file transfers Transfers counts).
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
// on a prebuilt (and already validated) body data-flow graph: class
// weights come in closed form from the per-entry innermost hit thresholds
// and each iteration class is list-scheduled once. The graph is only read, so
// one graph can back any number of concurrent simulations. Sweeps that
// simulate many related plans should share a Simulator with a
// simcache.Cache instead, which memoizes the class schedules across plans.
func SimulateGraph(nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) (*Result, error) {
	return (&Simulator{}).SimulateGraph(nest, g, plan, cfg)
}

// Simulator runs cycle simulations, optionally memoizing class schedules
// in a shared cache. The zero value (nil Cache) schedules every class
// directly and is what the package-level SimulateGraph uses; sweep engines
// attach a cache shared across all their plans. Safe for concurrent use.
type Simulator struct {
	// Cache memoizes class-schedule lengths across simulations; nil
	// disables memoization (results are identical either way — the cache
	// only removes redundant work).
	Cache *simcache.Cache

	// Obs, when non-nil, receives the class-scheduling stage timings
	// ("sim/class"). Cache hits record nothing here — the cache's own
	// Snapshot counts them.
	Obs *obs.Metrics
}

// SimulateGraph runs the cycle simulation of the nest under the plan on a
// prebuilt (and already validated) body data-flow graph. The Result is
// identical — field for field — to the fused walker test oracle's and the
// seed reference's (see fragment_test.go and seedref_test.go for the
// differential contracts).
func (s *Simulator) SimulateGraph(nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) (*Result, error) {
	if cfg.PortsPerRAM < 1 {
		return nil, fmt.Errorf("sched: PortsPerRAM must be ≥1, got %d", cfg.PortsPerRAM)
	}
	if err := checkNest(nest, plan); err != nil {
		return nil, err
	}
	if err := checkPlan(nest, g, plan); err != nil {
		return nil, err
	}
	counts := classWeights(nest, plan.Order())
	return assembleResult(g, plan, cfg, counts, s.classLen(g, cfg))
}

// checkPlan rejects a plan whose references are not the graph's: the
// simulation indexes plan entries by the graph's reference numbers.
func checkPlan(nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan) error {
	order := plan.Order()
	if len(order) != g.NumRefs() {
		return fmt.Errorf("sched: %q: the plan has %d entries, the graph %d references", nest.Name, len(order), g.NumRefs())
	}
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindRef && order[n.RefID].Info.Key() != n.RefKey {
			return fmt.Errorf("sched: %q: graph reference %d is %s, the plan's %s",
				nest.Name, n.RefID, n.RefKey, order[n.RefID].Info.Key())
		}
	}
	return nil
}

// checkNest rejects hand-built nests with zero or negative steps — every
// loop over a nest's positions advances by Step and would never end — and
// a plan built for other loop bounds: its entries' hit thresholds count
// positions of the plan's own innermost loop.
func checkNest(nest *ir.Nest, plan *scalarrepl.Plan) error {
	for _, l := range nest.Loops {
		if l.Step <= 0 {
			return fmt.Errorf("sched: loop %q has non-positive step %d (validate the nest with ir.NewNest)", l.Var, l.Step)
		}
	}
	if !slices.Equal(plan.Nest.Loops, nest.Loops) {
		return fmt.Errorf("sched: %q: the plan was built for another loop nest", nest.Name)
	}
	return nil
}

// classLen returns the class-length function: memoized per (DFG
// fingerprint, scheduler config, register-hit set) when a cache is
// attached, direct scheduling otherwise.
func (s *Simulator) classLen(g *dfg.Graph, cfg Config) classLenFunc {
	direct := func(hit []bool) (int, int, error) {
		tm := s.Obs.Stage("sim/class").Start()
		defer tm.Stop()
		iter, err := scheduleClass(g, hit, cfg, false)
		if err != nil {
			return 0, 0, err
		}
		mem, err := scheduleClass(g, hit, cfg, true)
		if err != nil {
			return 0, 0, err
		}
		return iter, mem, nil
	}
	if s.Cache == nil {
		return func(_ string, hit []bool) (int, int, error) {
			return direct(hit)
		}
	}
	prefix := g.Fingerprint() + "|" + cfg.Lat.Fingerprint() + "|P" + strconv.Itoa(cfg.PortsPerRAM) + "|"
	return func(sig string, hit []bool) (int, int, error) {
		// The signature names the hit set: its byte i is reference number
		// i, checkPlan ties number i to the graph's i-th reference key in
		// first-use order, and the DFG fingerprint renders those keys in
		// node order, so one prefix numbers them one way.
		cl, err := s.Cache.ClassLen(prefix+sig, func() (simcache.ClassLen, error) {
			iter, mem, err := direct(hit)
			return simcache.ClassLen{Iter: iter, Mem: mem}, err
		})
		return cl.Iter, cl.Mem, err
	}
}

// classWeights computes the iteration-class weights in closed form. The
// class of an iteration depends only on its innermost position p, and
// entry i hits there exactly when p < InnerHits() = h_i. The distinct
// thresholds inside (0, trip) cut the positions [0, trip) into intervals
// that are one class each: entry i hits throughout an interval iff h_i ≥
// its end. Every innermost position occurs once per combination of outer
// loop values, so a class counts its interval's length times the outer
// trip product. Only classes with a positive count are returned
// (zero-trip nests yield none), matching the walkers' filtered output
// exactly.
func classWeights(nest *ir.Nest, order []*scalarrepl.Entry) map[string]int {
	counts := map[string]int{}
	depth := nest.Depth()
	if depth == 0 {
		// Depth-0 nests execute one (empty-environment) iteration with an
		// all-miss signature, mirroring the seed walker.
		counts[strings.Repeat("0", len(order))] = 1
		return counts
	}
	outer := 1
	for _, l := range nest.Loops[:depth-1] {
		outer *= l.Trip()
	}
	trip := nest.Loops[depth-1].Trip()
	if outer == 0 || trip == 0 {
		return counts
	}
	hits := make([]int, len(order))
	ends := make([]int, 0, len(order)+1)
	for i, e := range order {
		hits[i] = e.InnerHits()
		if hits[i] > 0 && hits[i] < trip {
			ends = append(ends, hits[i])
		}
	}
	ends = append(ends, trip)
	slices.Sort(ends)
	ends = slices.Compact(ends)
	sig := make([]byte, len(order))
	lo := 0
	for _, end := range ends {
		for i, h := range hits {
			if h >= end {
				sig[i] = '1'
			} else {
				sig[i] = '0'
			}
		}
		counts[string(sig)] = (end - lo) * outer
		lo = end
	}
	return counts
}

// classLenFunc returns one iteration class's scheduled lengths (full model,
// memory-level). sig gives the class's identity for memoized
// implementations; hit is the residency vector ScheduleClass consumes,
// read only during the call.
type classLenFunc func(sig string, hit []bool) (iter, mem int, err error)

// assembleResult builds the Result shared by the simulator and the fused
// test oracle from the class weights: classes are emitted in
// sorted-signature order, scheduled through classLen, then ordered densest
// first — the exact construction both engines must agree on for
// byte-identical results.
func assembleResult(g *dfg.Graph, plan *scalarrepl.Plan, cfg Config, counts map[string]int, classLen classLenFunc) (*Result, error) {
	res := &Result{}
	order := plan.Order()
	// RAM traffic counts DFG nodes, not body occurrences: a value written
	// and read back within the iteration is forwarded through the datapath
	// and costs a single RAM transaction when RAM-bound.
	nodesPerRef := make([]int, len(order))
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindRef {
			nodesPerRef[n.RefID]++
		}
	}
	sigs := make([]string, 0, len(counts))
	for sig := range counts {
		sigs = append(sigs, sig)
	}
	slices.Sort(sigs)
	hit := make([]bool, len(order))
	for _, sig := range sigs {
		ram := 0
		for i := range order {
			hit[i] = sig[i] == '1'
			if !hit[i] {
				ram += nodesPerRef[i]
			}
		}
		iterLen, memLen, err := classLen(sig, hit)
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
	slices.SortFunc(res.Classes, func(a, b ClassStat) int { return cmp.Compare(b.Count, a.Count) })

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
func scheduleClass(g *dfg.Graph, hit []bool, cfg Config, zeroOps bool) (int, error) {
	s, err := ScheduleClass(g, hit, cfg, zeroOps)
	if err != nil {
		return 0, err
	}
	return s.Length, nil
}

// ScheduleClass performs ASAP list scheduling of the body DFG for one
// residency pattern: hit[r] reports whether the reference numbered r
// (dfg.Node.RefID) is register-resident, and has one entry per reference
// of the graph. Register-resident reference nodes are free; RAM-bound
// ones occupy a port of their array's RAM for the access latency. When
// zeroOps is true operator latencies are suppressed, yielding the
// memory-level (Tmem) length of the class.
func ScheduleClass(g *dfg.Graph, hit []bool, cfg Config, zeroOps bool) (*Schedule, error) {
	if len(hit) != g.NumRefs() {
		return nil, fmt.Errorf("sched: hit vector has %d entries, the graph %d references", len(hit), g.NumRefs())
	}
	order, err := g.Topo()
	if err != nil {
		return nil, err
	}
	sc := &Schedule{
		Start:  make([]int, len(g.Nodes)),
		Finish: make([]int, len(g.Nodes)),
	}
	finish := sc.Finish
	// ports[a][c] counts the accesses occupying array a's RAM in cycle c;
	// a row grows to the latest cycle booked on it.
	ports := make([][]int, g.NumArrays())
	length := 0
	for _, id := range order {
		n := g.Nodes[id]
		ready := 0
		for _, p := range g.Pred[id] {
			ready = max(ready, finish[p])
		}
		l := 0
		switch {
		case n.Kind == dfg.KindRef && !hit[n.RefID]:
			l = cfg.Lat.Mem
		case n.Kind == dfg.KindOp && !zeroOps:
			l = cfg.Lat.OpLat(n.Op)
		}
		start := ready
		if n.Kind == dfg.KindRef && l > 0 {
			row := ports[n.ArrayID]
			// Find the earliest start where all l cycles have a free port:
			// a full cycle rules out every start up to it.
			for c := start; c < start+l; c++ {
				if c < len(row) && row[c] >= cfg.PortsPerRAM {
					start = c + 1
				}
			}
			if end := start + l; len(row) < end {
				row = append(row, make([]int, end-len(row))...)
			}
			for c := start; c < start+l; c++ {
				row[c]++
			}
			ports[n.ArrayID] = row
		}
		sc.Start[id] = start
		finish[id] = start + l
		length = max(length, finish[id])
	}
	sc.Length = length
	return sc, nil
}
