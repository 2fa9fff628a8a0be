package core

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/reuse"
)

// CPARA is the Critical-Path-Aware Register Allocation algorithm
// (Figure 4), the paper's proposed contribution.
//
// Each round rebuilds the Critical Graph of the body DFG under the current
// allocation (fully replaced references access registers and cost nothing;
// everything else pays a RAM access), enumerates the minimal cuts of the CG
// over the not-yet-satisfied references, and commits registers to the cut
// with the minimum residual requirement. When the budget covers the cut,
// every member receives its full requirement — removing one memory access
// from *every* critical path at once. When it does not, the residue is
// split equally among the cut's members, exploiting partial reuse on all of
// them so that the paths still shorten for part of the iteration space.
// Rounds repeat until the budget is exhausted or no critical path can be
// improved further.
type CPARA struct{}

// Name implements Allocator.
func (CPARA) Name() string { return "CPA-RA" }

// Allocate implements Allocator.
func (CPARA) Allocate(p *Problem) (*Allocation, error) {
	a := newAllocation(p, "CPA-RA")
	byKey := reuse.ByKey(p.Infos)
	remaining := p.Rmax - a.Total()
	// satisfied[i] tracks β ≥ ν for reference i: such references are
	// register-resident on every path and no longer eligible for a cut.
	satisfied := make([]bool, len(p.Infos))
	for i, inf := range p.Infos {
		satisfied[i] = a.Beta[i] >= inf.Nu
	}
	lat := p.Lat.NodeLat(func(ref int) bool { return satisfied[ref] })
	eligible := func(n *dfg.Node) bool { return !satisfied[n.RefID] }
	for round := 1; remaining > 0; round++ {
		cg, err := p.Graph.CriticalGraph(lat)
		if err != nil {
			return nil, fmt.Errorf("cpa-ra: %w", err)
		}
		cuts, err := cg.Cuts(eligible)
		if err != nil {
			// Some critical path has no improvable reference left: no
			// allocation can shorten the computation further.
			a.tracef("round %d: critical paths exhausted (%v); %d registers left unused", round, err, remaining)
			break
		}
		best, bestReq := pickCut(cuts, byKey, a)
		if best == nil {
			a.tracef("round %d: no improvable cut; %d registers left unused", round, remaining)
			break
		}
		if bestReq <= remaining {
			for _, key := range best {
				inf := byKey[key]
				i := inf.Group.ID
				remaining -= inf.Nu - a.Beta[i]
				a.Beta[i] = inf.Nu
				satisfied[i] = true
			}
			a.tracef("round %d: cut %s fully replaced (CP latency %d, req %d, %d left)",
				round, best, cg.Total, bestReq, remaining)
			continue
		}
		// Equal division of the residue across the cut (Figure 4's final
		// branch); the integer remainder goes to the earliest members.
		share := remaining / len(best)
		extra := remaining % len(best)
		granted := 0
		for j, key := range best {
			inf := byKey[key]
			i := inf.Group.ID
			g := share
			if j < extra {
				g++
			}
			g = min(g, inf.Nu-a.Beta[i])
			a.Beta[i] += g
			satisfied[i] = a.Beta[i] >= inf.Nu
			granted += g
		}
		remaining -= granted
		a.tracef("round %d: cut %s partially replaced, %d registers split equally (%d left)",
			round, best, granted, remaining)
		if granted == 0 {
			// Every member capped out (possible only with an empty residue
			// per member); nothing more can be placed.
			break
		}
	}
	// Critical paths can no longer be shortened (operator latency now
	// dominates) but budget may remain: spend it off the critical path on
	// the best benefit/cost references, mirroring the paper's observation
	// that v3 designs "use almost all the available registers".
	if remaining := p.Rmax - a.Total(); remaining > 0 {
		spendResidue(a, remaining, reuse.SortByBenefitCost(p.Infos))
	}
	return a, a.Validate(p)
}

// pickCut selects the cut with the minimum residual register requirement
// Σ(ν−β); ties break toward fewer references, then lexicographic order
// (Cuts returns cuts already sorted), keeping the algorithm deterministic.
func pickCut(cuts []dfg.Cut, byKey map[string]*reuse.Info, a *Allocation) (dfg.Cut, int) {
	var best dfg.Cut
	bestReq := 0
	for _, c := range cuts {
		req := 0
		for _, key := range c {
			inf := byKey[key]
			req += inf.Nu - a.Beta[inf.Group.ID]
		}
		if best == nil || req < bestReq || (req == bestReq && len(c) < len(best)) {
			best, bestReq = c, req
		}
	}
	return best, bestReq
}
