package core

import "repro/internal/reuse"

// PRRA is the Partial Reuse Register Allocation algorithm (Figure 3,
// variant 2). It runs the FR-RA sweep and then, instead of leaving the
// residual registers idle, hands them to the highest-ranked reference whose
// requirement was not met, exploiting partial data reuse (1 < β < ν).
//
// The paper assigns the residue to the single next unsatisfied reference;
// when the residue exceeds what that reference can absorb, this
// implementation cascades the rest down the sorted list (a strict
// generalization that changes nothing on the paper's example, where the
// residue of 11 is swallowed whole by the d reference).
type PRRA struct{}

// Name implements Allocator.
func (PRRA) Name() string { return "PR-RA" }

// Allocate implements Allocator.
func (PRRA) Allocate(p *Problem) (*Allocation, error) {
	a := newAllocation(p, "PR-RA")
	remaining, sorted := greedyFullReuse(p, a)
	spendResidue(a, remaining, sorted)
	return a, a.Validate(p)
}

// spendResidue hands leftover registers to unsatisfied references in sorted
// (benefit/cost) order, exploiting partial reuse. Shared by PR-RA and by
// CPA-RA's post-critical-path sweep.
func spendResidue(a *Allocation, remaining int, sorted []*reuse.Info) {
	for _, inf := range sorted {
		if remaining == 0 {
			break
		}
		i := inf.Group.ID
		have := a.Beta[i]
		if have >= inf.Nu {
			continue
		}
		grant := inf.Nu - have
		if grant > remaining {
			grant = remaining
		}
		a.Beta[i] = have + grant
		remaining -= grant
		a.tracef("partial reuse for %s: +%d registers (β=%d of ν=%d), %d left",
			inf.Key(), grant, a.Beta[i], inf.Nu, remaining)
	}
}
