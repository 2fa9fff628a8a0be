package core

import "repro/internal/reuse"

// FRRA is the Full Reuse Register Allocation algorithm (Figure 3,
// variant 1). After seeding one staging register per reference, it walks
// the references in descending benefit/cost order and grants each its full
// requirement ν when the remaining budget allows, otherwise skips it.
type FRRA struct{}

// Name implements Allocator.
func (FRRA) Name() string { return "FR-RA" }

// Allocate implements Allocator.
func (FRRA) Allocate(p *Problem) (*Allocation, error) {
	a := newAllocation(p, "FR-RA")
	greedyFullReuse(p, a)
	return a, a.Validate(p)
}

// greedyFullReuse performs the shared FR-RA sweep and returns the remaining
// budget together with the sorted reference order (PR-RA continues from
// both). When every reference fits it returns no order: nothing is left
// unsatisfied for the residue to reach.
func greedyFullReuse(p *Problem, a *Allocation) (remaining int, sorted []*reuse.Info) {
	remaining = p.Rmax - a.Total()
	// Fast path from the paper's pseudocode: when everything fits, take it.
	if fitsFully(p, remaining) {
		return takeAll(p, a), nil
	}
	sorted = reuse.SortByBenefitCost(p.Infos)
	for _, inf := range sorted {
		cost := inf.Nu - a.Beta[inf.Group.ID]
		if cost == 0 {
			continue
		}
		if cost <= remaining {
			a.Beta[inf.Group.ID] = inf.Nu
			remaining -= cost
			a.tracef("full reuse for %s: B/C=%.2f, +%d registers, %d left", inf.Key(), inf.BenefitCost(), cost, remaining)
		} else {
			a.tracef("skip %s: needs %d registers, only %d left", inf.Key(), cost, remaining)
		}
	}
	return remaining, sorted
}

// fitsFully reports whether the budget left after the staging registers
// covers every reference's full requirement: Σ(ν−1) ≤ remaining, that is
// Σν ≤ Rmax. The problem is then saturated, and every allocator's answer
// is a closed form.
func fitsFully(p *Problem, remaining int) bool {
	need := 0
	for _, inf := range p.Infos {
		need += inf.Nu - 1
	}
	return need <= remaining
}

// takeAll grants every reference its full requirement, FR-RA's answer to
// a saturated problem, and returns the registers left over.
func takeAll(p *Problem, a *Allocation) int {
	for i, inf := range p.Infos {
		a.Beta[i] = inf.Nu
	}
	a.tracef("all references fit fully (%d registers); no selection needed", a.Total())
	return p.Rmax - a.Total()
}
