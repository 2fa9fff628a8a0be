// Package rtl lowers a scheduled storage plan to an explicit FSMD — the
// finite-state-machine-with-datapath structure a behavioral synthesis tool
// (the paper used Mentor Monet) would emit. Each steady-state iteration
// class becomes a control sequence of states; each state issues the RAM
// transactions and operator evaluations the ASAP schedule placed in that
// cycle.
//
// The package also contains a cycle-accurate simulator that executes the
// FSMD with real values — register banks, RAM ports, operator results per
// state — asserting that (a) RAM port limits are honored in every cycle,
// (b) the executed cycle count equals the analytic scheduler's prediction,
// and (c) the final memory image matches the reference interpreter. This
// closes the loop between the allocation model and an implementable
// control structure.
package rtl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

// ClassFSM is the control sequence of one iteration class.
type ClassFSM struct {
	Signature string
	States    int
	// IssueAt[cycle] lists the DFG node ids whose execution starts at that
	// cycle (RAM transactions occupy [start, start+Mem); operators deliver
	// their result at start+latency).
	IssueAt map[int][]int
	// Hit reports per reference key whether this class serves it from
	// registers.
	Hit map[string]bool
}

// FSMD is the full design: the shared datapath graph plus one control
// sequence per iteration class.
type FSMD struct {
	Nest    *ir.Nest
	Plan    *scalarrepl.Plan
	Graph   *dfg.Graph
	Cfg     sched.Config
	Classes map[string]*ClassFSM
}

// Build constructs the FSMD for every iteration class the plan induces.
func Build(nest *ir.Nest, plan *scalarrepl.Plan, cfg sched.Config) (*FSMD, error) {
	g, err := dfg.Build(nest)
	if err != nil {
		return nil, err
	}
	f := &FSMD{Nest: nest, Plan: plan, Graph: g, Cfg: cfg, Classes: map[string]*ClassFSM{}}
	// Discover the classes by walking the iteration space once.
	env := map[string]int{}
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == nest.Depth() {
			sig := plan.HitKeys(env)
			if _, ok := f.Classes[sig]; !ok {
				cf, err := f.buildClass(sig)
				if err != nil {
					return err
				}
				f.Classes[sig] = cf
			}
			return nil
		}
		l := nest.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			if err := walk(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *FSMD) buildClass(sig string) (*ClassFSM, error) {
	hit := map[string]bool{}
	for i, e := range f.Plan.Order() {
		hit[e.Info.Key()] = sig[i] == '1'
	}
	// The scheduler reads residency by reference number.
	hitVec := make([]bool, f.Graph.NumRefs())
	for _, n := range f.Graph.Nodes {
		if n.Kind == dfg.KindRef {
			hitVec[n.RefID] = hit[n.RefKey]
		}
	}
	sc, err := sched.ScheduleClass(f.Graph, hitVec, f.Cfg, false)
	if err != nil {
		return nil, err
	}
	cf := &ClassFSM{Signature: sig, States: sc.Length, IssueAt: map[int][]int{}, Hit: hit}
	if cf.States < 1 {
		cf.States = 1
	}
	for id := range f.Graph.Nodes {
		cf.IssueAt[sc.Start[id]] = append(cf.IssueAt[sc.Start[id]], id)
	}
	for _, ids := range cf.IssueAt {
		sort.Ints(ids)
	}
	return cf, nil
}

// String renders the FSMD as a state table for inspection and golden tests.
func (f *FSMD) String() string {
	var b strings.Builder
	var sigs []string
	for s := range f.Classes {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		cf := f.Classes[sig]
		fmt.Fprintf(&b, "class %s: %d states\n", sig, cf.States)
		for cyc := 0; cyc <= cf.States; cyc++ {
			ids := cf.IssueAt[cyc]
			if len(ids) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  S%d:", cyc)
			for _, id := range ids {
				n := f.Graph.Nodes[id]
				switch {
				case n.Kind == dfg.KindRef && cf.Hit[n.RefKey]:
					fmt.Fprintf(&b, " reg(%s)", n.RefKey)
				case n.Kind == dfg.KindRef && n.IsWrite:
					fmt.Fprintf(&b, " ram_wr(%s)", n.RefKey)
				case n.Kind == dfg.KindRef:
					fmt.Fprintf(&b, " ram_rd(%s)", n.RefKey)
				default:
					fmt.Fprintf(&b, " alu(%s)", n.Op)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SimStats is the outcome of a cycle-accurate FSMD execution.
type SimStats struct {
	Cycles      int // total states executed across all iterations
	RAMReads    int
	RAMWrites   int
	MaxPortUse  int // worst per-array, per-cycle port pressure observed
	Iterations  int
	ClassCounts map[string]int
}

// Simulate executes the FSMD cycle by cycle with real values against the
// store. It returns an error on any port-limit violation or semantic
// failure (reading a value before its producing state).
func (f *FSMD) Simulate(store *ir.Store) (*SimStats, error) {
	for _, a := range f.Nest.Arrays() {
		if !store.Bound(a.Name) {
			store.Bind(a)
		}
	}
	stats := &SimStats{ClassCounts: map[string]int{}}
	banks := newBanks(f.Plan)
	lastRegion := map[string]int{}
	for key := range banks {
		lastRegion[key] = -1
	}
	env := map[string]int{}
	val := make([]int64, len(f.Graph.Nodes))
	done := make([]int, len(f.Graph.Nodes)) // finish cycle of each node this iteration

	evalArg := func(a dfg.Arg, cycle int) (int64, error) {
		switch {
		case a.Lit != nil:
			return *a.Lit, nil
		case a.Var != "":
			return int64(env[a.Var]), nil
		default:
			if done[a.NodeID] > cycle {
				return 0, fmt.Errorf("rtl: node %d consumed at cycle %d before ready at %d",
					a.NodeID, cycle, done[a.NodeID])
			}
			return val[a.NodeID], nil
		}
	}

	runIteration := func() error {
		// Region flushes between iterations (transfer states outside the
		// steady FSM, like the paper's peeled sections).
		for key, bk := range banks {
			r := bk.entry.RegionOf(f.Nest, env)
			if lastRegion[key] != r {
				if lastRegion[key] >= 0 {
					w, err := bk.flush(store)
					if err != nil {
						return err
					}
					stats.RAMWrites += w
				}
				lastRegion[key] = r
			}
		}
		sig := f.Plan.HitKeys(env)
		cf := f.Classes[sig]
		if cf == nil {
			return fmt.Errorf("rtl: iteration fell into unknown class %s", sig)
		}
		stats.ClassCounts[sig]++
		lat := func(n *dfg.Node) int {
			if n.Kind == dfg.KindRef {
				if cf.Hit[n.RefKey] {
					return 0
				}
				return f.Cfg.Lat.Mem
			}
			return f.Cfg.Lat.OpLat(n.Op)
		}
		for cyc := 0; cyc <= cf.States; cyc++ {
			portUse := map[string]int{}
			for _, id := range cf.IssueAt[cyc] {
				n := f.Graph.Nodes[id]
				l := lat(n)
				if n.Kind == dfg.KindRef && !cf.Hit[n.RefKey] && l > 0 {
					portUse[n.Ref.Array.Name]++
					if portUse[n.Ref.Array.Name] > f.Cfg.PortsPerRAM {
						return fmt.Errorf("rtl: port violation on %s at state %d of class %s",
							n.Ref.Array.Name, cyc, sig)
					}
					if portUse[n.Ref.Array.Name] > stats.MaxPortUse {
						stats.MaxPortUse = portUse[n.Ref.Array.Name]
					}
				}
				v, rr, rw, err := f.execNode(n, cf, cyc, env, store, banks, evalArg)
				if err != nil {
					return err
				}
				stats.RAMReads += rr
				stats.RAMWrites += rw
				val[id] = v
				done[id] = cyc + l
			}
		}
		stats.Cycles += maxInt(cf.States, 1)
		stats.Iterations++
		return nil
	}
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == f.Nest.Depth() {
			return runIteration()
		}
		l := f.Nest.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			if err := walk(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	var keys []string
	for k := range banks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, err := banks[k].flush(store)
		if err != nil {
			return nil, err
		}
		stats.RAMWrites += w
	}
	return stats, nil
}

// execNode executes one datapath node in its scheduled state.
func (f *FSMD) execNode(n *dfg.Node, cf *ClassFSM, cycle int, env map[string]int,
	store *ir.Store, banks map[string]*bank,
	evalArg func(dfg.Arg, int) (int64, error)) (v int64, ramReads, ramWrites int, err error) {
	switch {
	case n.Kind == dfg.KindOp:
		l, err := evalArg(n.Args[0], cycle)
		if err != nil {
			return 0, 0, 0, err
		}
		r, err := evalArg(n.Args[1], cycle)
		if err != nil {
			return 0, 0, 0, err
		}
		v, err := ir.EvalOp(n.Op, l, r)
		return v, 0, 0, err
	case n.IsWrite:
		// A write node stores its producer's value; when also read later
		// (forwarding node, e.g. d[i][k]) its value feeds consumers.
		v, err := evalArg(n.Args[0], cycle)
		if err != nil {
			return 0, 0, 0, err
		}
		bk := banks[n.RefKey]
		if cf.Hit[n.RefKey] && bk != nil {
			spills, err := bk.write(store, env, v)
			return v, 0, spills, err
		}
		if err := store.StoreElem(n.Ref.Array, evalIdx(n.Ref, env), v); err != nil {
			return 0, 0, 0, err
		}
		return v, 0, 1, nil
	default: // pure read
		bk := banks[n.RefKey]
		if cf.Hit[n.RefKey] && bk != nil {
			v, loads, err := bk.read(store, env)
			return v, loads, 0, err
		}
		v, err := store.Load(n.Ref.Array, evalIdx(n.Ref, env))
		return v, 1, 0, err
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func evalIdx(r *ir.ArrayRef, env map[string]int) []int {
	idx := make([]int, len(r.Index()))
	for d, ix := range r.Index() {
		idx[d] = ix.Eval(env)
	}
	return idx
}
