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
//
//repro:deterministic-output
package rtl

import (
	"fmt"
	"slices"
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
	Nest  *ir.Nest
	Plan  *scalarrepl.Plan
	Graph *dfg.Graph
	Cfg   sched.Config
	// Classes holds one control sequence per iteration class, in
	// signature order.
	Classes []*ClassFSM
}

// Build constructs the FSMD for every iteration class the plan induces:
// the classes of the scheduler's closed form (sched.SimulateGraph).
// Simulate classifies every executed iteration independently and fails
// on one outside them.
func Build(nest *ir.Nest, plan *scalarrepl.Plan, cfg sched.Config) (*FSMD, error) {
	g, err := dfg.Build(nest)
	if err != nil {
		return nil, err
	}
	res, err := sched.SimulateGraph(nest, g, plan, cfg)
	if err != nil {
		return nil, err
	}
	f := &FSMD{Nest: nest, Plan: plan, Graph: g, Cfg: cfg}
	for _, cs := range res.Classes {
		cf, err := f.buildClass(cs.Signature)
		if err != nil {
			return nil, err
		}
		f.Classes = append(f.Classes, cf)
	}
	slices.SortFunc(f.Classes, func(a, b *ClassFSM) int { return strings.Compare(a.Signature, b.Signature) })
	return f, nil
}

// Class returns the control sequence of the class with the signature, or
// nil when the FSMD has none.
func (f *FSMD) Class(sig string) *ClassFSM {
	i, ok := slices.BinarySearchFunc(f.Classes, sig, func(c *ClassFSM, s string) int { return strings.Compare(c.Signature, s) })
	if !ok {
		return nil
	}
	return f.Classes[i]
}

func (f *FSMD) buildClass(sig string) (*ClassFSM, error) {
	// Signature byte i is reference number i, as the scheduler reads it.
	hit, hitVec := map[string]bool{}, make([]bool, len(sig))
	for i, e := range f.Plan.Order() {
		hitVec[i] = sig[i] == '1'
		hit[e.Info.Key()] = hitVec[i]
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
	for _, cf := range f.Classes {
		fmt.Fprintf(&b, "class %s: %d states\n", cf.Signature, cf.States)
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
// store; covered accesses go through the plan's register banks
// (scalarrepl.Banks), drained between iterations at region boundaries
// (transfer states outside the steady FSM, like the paper's peeled
// sections) and after the last one. It returns an error on any port-limit
// violation or semantic failure (reading a value before its producing
// state).
func (f *FSMD) Simulate(store *ir.Store) (*SimStats, error) {
	store.BindNest(f.Nest)
	stats := &SimStats{ClassCounts: map[string]int{}}
	banks := scalarrepl.NewBanks(f.Plan, store)
	val := make([]int64, len(f.Graph.Nodes))
	done := make([]int, len(f.Graph.Nodes)) // finish cycle of each node this iteration
	err := f.Nest.Each(func(env map[string]int) error {
		stores, err := banks.Enter(env)
		stats.RAMWrites += stores
		if err != nil {
			return err
		}
		sig := f.Plan.HitKeys(env)
		cf := f.Class(sig)
		if cf == nil {
			return fmt.Errorf("rtl: iteration fell into unknown class %s", sig)
		}
		stats.ClassCounts[sig]++
		arg := func(a dfg.Arg, cycle int) (int64, error) {
			switch {
			case a.Lit != nil:
				return *a.Lit, nil
			case a.Var != "":
				return int64(env[a.Var]), nil
			case done[a.NodeID] > cycle:
				return 0, fmt.Errorf("rtl: node %d consumed at cycle %d before ready at %d",
					a.NodeID, cycle, done[a.NodeID])
			}
			return val[a.NodeID], nil
		}
		for cyc := 0; cyc <= cf.States; cyc++ {
			portUse := map[string]int{}
			for _, id := range cf.IssueAt[cyc] {
				n := f.Graph.Nodes[id]
				l := 0
				switch {
				case n.Kind == dfg.KindOp:
					l = f.Cfg.Lat.OpLat(n.Op)
				case !cf.Hit[n.RefKey] && f.Cfg.Lat.Mem > 0:
					l = f.Cfg.Lat.Mem
					arr := n.Ref.Array.Name
					if portUse[arr]++; portUse[arr] > f.Cfg.PortsPerRAM {
						return fmt.Errorf("rtl: port violation on %s at state %d of class %s", arr, cyc, sig)
					}
					stats.MaxPortUse = max(stats.MaxPortUse, portUse[arr])
				}
				v, err := f.execNode(n, cf, cyc, env, store, banks, stats, arg)
				if err != nil {
					return err
				}
				val[id], done[id] = v, cyc+l
			}
		}
		stats.Cycles += max(cf.States, 1)
		stats.Iterations++
		return nil
	})
	if err != nil {
		return nil, err
	}
	stores, err := banks.Drain()
	stats.RAMWrites += stores
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// execNode executes one datapath node in its scheduled state, counting
// the RAM traffic it issues.
func (f *FSMD) execNode(n *dfg.Node, cf *ClassFSM, cycle int, env map[string]int, store *ir.Store,
	banks *scalarrepl.Banks, stats *SimStats, arg func(dfg.Arg, int) (int64, error)) (int64, error) {
	switch {
	case n.Kind == dfg.KindOp:
		l, err := arg(n.Args[0], cycle)
		if err != nil {
			return 0, err
		}
		r, err := arg(n.Args[1], cycle)
		if err != nil {
			return 0, err
		}
		return ir.EvalOp(n.Op, l, r)
	case n.IsWrite:
		// A write node stores its producer's value; when also read later
		// (forwarding node, e.g. d[i][k]) its value feeds consumers.
		v, err := arg(n.Args[0], cycle)
		if err != nil {
			return 0, err
		}
		if cf.Hit[n.RefKey] {
			stores, err := banks.Write(n.RefID, env, v)
			stats.RAMWrites += stores
			return v, err
		}
		stats.RAMWrites++
		return v, store.StoreElem(n.Ref.Array, n.Ref.IndexAt(env), v)
	case cf.Hit[n.RefKey]: // covered read
		v, loads, stores, err := banks.Read(n.RefID, env)
		stats.RAMReads += loads
		stats.RAMWrites += stores
		return v, err
	default: // RAM read
		stats.RAMReads++
		return store.Load(n.Ref.Array, n.Ref.IndexAt(env))
	}
}
