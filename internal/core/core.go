// Package core implements the paper's contribution: register allocation for
// scalar-replaced array references under a fixed register budget.
//
// Four allocators are provided:
//
//   - FRRA  — Full Reuse Register Allocation (Figure 3, variant 1): greedy
//     by benefit/cost, all-or-nothing per reference.
//   - PRRA  — Partial Reuse Register Allocation (Figure 3, variant 2):
//     FR-RA plus assignment of the leftover registers for partial reuse.
//   - CPARA — Critical-Path-Aware Register Allocation (Figure 4, the
//     proposed algorithm): repeatedly allocates registers to the
//     minimum-requirement cut of the Critical Graph so that every round
//     shortens all critical paths simultaneously.
//   - Knapsack — the §3 baseline: optimal 0/1 selection maximizing
//     eliminated memory accesses, oblivious to the critical path.
//
// All allocators guarantee at least one register per reference (the operand
// staging register that renders the computation feasible) and never exceed
// the budget.
//
//repro:deterministic-output
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/reuse"
)

// Problem is one register-allocation instance.
type Problem struct {
	Nest  *ir.Nest
	Infos []*reuse.Info // reuse summary per reference, first-use order
	Graph *dfg.Graph    // body data-flow graph
	Rmax  int           // register budget
	Lat   dfg.Latencies // latency model for critical-path reasoning
}

// NewProblem analyzes the nest and packages an allocation problem. A budget
// smaller than the number of references is rejected: every reference needs
// its staging register for the computation to be realizable at all.
func NewProblem(nest *ir.Nest, rmax int, lat dfg.Latencies) (*Problem, error) {
	infos, err := reuse.Analyze(nest)
	if err != nil {
		return nil, err
	}
	g, err := dfg.Build(nest)
	if err != nil {
		return nil, err
	}
	return NewProblemFrom(nest, infos, g, rmax, lat)
}

// NewProblemFrom packages a problem from a pre-computed front-end (reuse
// infos and body DFG), so a caller sweeping many budgets or latency models
// over one nest analyzes it once. The infos and graph are shared, never
// copied; they are read-only to every allocator, so one analysis may back
// any number of concurrent problems. Allocators index both by reference
// number, so the infos and the graph must number the same references:
// Infos[i] is the group with ID i, and a graph node with RefID i carries
// its key. A front-end mixed from two nests is an error.
func NewProblemFrom(nest *ir.Nest, infos []*reuse.Info, g *dfg.Graph, rmax int, lat dfg.Latencies) (*Problem, error) {
	if g.NumRefs() != len(infos) {
		return nil, fmt.Errorf("core: %q: the graph numbers %d references, the reuse summary %d",
			nest.Name, g.NumRefs(), len(infos))
	}
	for _, n := range g.Nodes {
		if n.Kind == dfg.KindRef && infos[n.RefID].Key() != n.RefKey {
			return nil, fmt.Errorf("core: %q: graph reference %d is %s, the reuse summary's %s",
				nest.Name, n.RefID, n.RefKey, infos[n.RefID].Key())
		}
	}
	if rmax < len(infos) {
		return nil, fmt.Errorf("core: budget %d below the %d references of %q (one staging register each)",
			rmax, len(infos), nest.Name)
	}
	return &Problem{Nest: nest, Infos: infos, Graph: g, Rmax: rmax, Lat: lat}, nil
}

// Allocation is the outcome of one allocator run: the per-reference
// register counts β plus a decision trace for diagnostics.
type Allocation struct {
	Algorithm string
	Rmax      int
	// Beta holds β per reference in the problem's Infos order: Beta[i] is
	// the count of the reference numbered i (Infos[i].Group.ID).
	Beta []int
	// infos names the references for String.
	infos []*reuse.Info
	// steps records every decision unrendered: sweeps never read the
	// trace, so they pay for no formatting.
	steps []step
}

// step is one recorded allocator decision: a format and its arguments,
// captured by value when the decision is made.
type step struct {
	format string
	args   []any
}

// Total returns Σβ, the registers consumed.
func (a *Allocation) Total() int {
	t := 0
	for _, b := range a.Beta {
		t += b
	}
	return t
}

// FullyReplaced reports whether the reference's full reuse is captured.
func (a *Allocation) FullyReplaced(inf *reuse.Info) bool { return a.Beta[inf.Group.ID] >= inf.Nu }

// String renders the β vector sorted by key.
func (a *Allocation) String() string {
	order := slices.Clone(a.infos)
	sort.Slice(order, func(i, j int) bool { return order[i].Key() < order[j].Key() })
	s := a.Algorithm + ":"
	for _, inf := range order {
		s += fmt.Sprintf(" β(%s)=%d", inf.Key(), a.Beta[inf.Group.ID])
	}
	return s
}

// Trace renders the allocator's decision trace, one line per decision in
// the order the decisions were made.
func (a *Allocation) Trace() []string {
	lines := make([]string, len(a.steps))
	for i, st := range a.steps {
		lines[i] = fmt.Sprintf(st.format, st.args...)
	}
	return lines
}

func (a *Allocation) tracef(format string, args ...any) {
	a.steps = append(a.steps, step{format, args})
}

// Allocator is the common interface of all allocation algorithms.
type Allocator interface {
	// Name returns the algorithm's short name (e.g. "CPA-RA").
	Name() string
	// Allocate solves the problem. Implementations must return a feasible
	// allocation: β ≥ 1 for every reference and Σβ ≤ Rmax.
	Allocate(p *Problem) (*Allocation, error)
}

// All returns the four allocators in the paper's presentation order, with
// the knapsack baseline last.
func All() []Allocator {
	return []Allocator{FRRA{}, PRRA{}, CPARA{}, Knapsack{}}
}

// ByName resolves an allocator by its short name, case-sensitively.
func ByName(name string) (Allocator, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("core: unknown allocator %q (have FR-RA, PR-RA, CPA-RA, KS-RA)", name)
}

// newAllocation seeds β=1 for every reference: the staging register.
func newAllocation(p *Problem, algorithm string) *Allocation {
	a := &Allocation{Algorithm: algorithm, Rmax: p.Rmax, Beta: make([]int, len(p.Infos)), infos: p.Infos}
	for i := range a.Beta {
		a.Beta[i] = 1
	}
	a.tracef("init: %d references, 1 staging register each, budget %d", len(p.Infos), p.Rmax)
	return a
}

// Validate checks the feasibility invariants of an allocation against its
// problem; allocator tests and property tests run it after every solve.
func (a *Allocation) Validate(p *Problem) error {
	if len(a.Beta) != len(p.Infos) {
		return fmt.Errorf("%s: allocation covers %d references, problem has %d",
			a.Algorithm, len(a.Beta), len(p.Infos))
	}
	if a.Total() > p.Rmax {
		return fmt.Errorf("%s: allocation uses %d registers, budget %d", a.Algorithm, a.Total(), p.Rmax)
	}
	for i, inf := range p.Infos {
		b := a.Beta[i]
		if b < 1 {
			return fmt.Errorf("%s: reference %s has β=%d, want ≥1", a.Algorithm, inf.Key(), b)
		}
		if b > inf.Nu {
			return fmt.Errorf("%s: reference %s has β=%d beyond its full requirement ν=%d",
				a.Algorithm, inf.Key(), b, inf.Nu)
		}
	}
	return nil
}
