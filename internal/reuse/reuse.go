// Package reuse implements the data-reuse analysis that feeds the register
// allocators: for every static array reference in a perfect loop nest it
// computes the loop level that carries reuse, the number of registers
// required to capture that reuse fully (the paper's ν, following So & Hall),
// and the number of memory accesses full scalar replacement eliminates (the
// benefit B used by the greedy allocators' B/C ratio).
//
// Because every loop bound in the supported program class is a compile-time
// constant, footprints are exact. For affine references the distinct-element
// count of a sub-space is independent of the fixed outer iteration (the
// accessed set is a translate), so one count per level suffices; this also
// captures sliding-window group reuse such as x[i+k] that a pure invariance
// test would miss. The count itself is closed-form: the flattened index is a
// single affine function of the loop variables, so each loop contributes an
// arithmetic progression and the footprint is the cardinality of their
// sumset (distinctClosedForm), counted exactly for any number of
// progressions. The brute-force sub-space enumerator the analysis
// originally shipped with is test code, the differential oracle
// (distinctEnumerated in closedform_test.go).
package reuse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ir"
)

// Info is the reuse summary for one static reference (one ir.RefGroup).
type Info struct {
	Group *ir.RefGroup

	// Nu is the number of registers required for full scalar replacement:
	// the number of distinct elements the reference touches during one
	// iteration of the outermost reuse-carrying loop. 1 when the reference
	// has no reuse (the operand staging register).
	Nu int

	// ReuseLevel is the outermost loop level (0 = outermost) that carries
	// temporal reuse for this reference, or -1 when no loop does.
	ReuseLevel int

	// Distinct[l] is the number of distinct elements accessed during one
	// full execution of loops l..depth-1 (so Distinct[0] is the whole-nest
	// footprint and Distinct[depth] == 1).
	Distinct []int

	// TotalReads and TotalWrites are dynamic access counts over the nest.
	TotalReads  int
	TotalWrites int

	// SavedReads is the benefit B: read accesses eliminated by full
	// replacement (each distinct element is loaded once instead of on every
	// use). Writes are not counted in B — matching the paper's worked
	// B/C ordering (c > a > d > b > e for Figure 1) — but the scheduler
	// still charges write traffic cycle by cycle.
	SavedReads int

	// Flat is the reference's flattened element index as one affine
	// function of the loop variables (see flatAffine). Storage plans read
	// their residency windows and register slots off it.
	Flat ir.Affine
}

// BenefitCost returns the paper's B/C ratio: eliminated accesses per
// register of full replacement.
func (inf *Info) BenefitCost() float64 { return float64(inf.SavedReads) / float64(inf.Nu) }

// Key returns the reference's canonical identity (e.g. "b[k][j]").
func (inf *Info) Key() string { return inf.Group.Key }

// String renders a single-line summary for logs and traces.
func (inf *Info) String() string {
	return fmt.Sprintf("%s: nu=%d reuseLevel=%d reads=%d writes=%d B=%d B/C=%.2f",
		inf.Key(), inf.Nu, inf.ReuseLevel, inf.TotalReads, inf.TotalWrites, inf.SavedReads, inf.BenefitCost())
}

// Analyze computes reuse information for every reference group of the nest,
// in first-use order.
func Analyze(n *ir.Nest) ([]*Info, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("reuse: %w", err)
	}
	iters := n.IterationCount()
	var out []*Info
	d := n.Depth()
	for _, g := range n.RefGroups() {
		inf := &Info{
			Group:       g,
			TotalReads:  g.Reads * iters,
			TotalWrites: g.Writes * iters,
			Flat:        flatAffine(g.Ref),
		}
		inf.Distinct = make([]int, d+1)
		inf.Distinct[d] = 1
		for l := d - 1; l >= 0; l-- {
			inf.Distinct[l] = distinctClosedForm(n, inf.Flat, l)
		}
		inf.derive(n)
		out = append(out, inf)
	}
	return out, nil
}

// derive fills the summary fields computed from the Distinct profile and
// the access totals: reuse level, ν, and the benefit B.
func (inf *Info) derive(n *ir.Nest) {
	d := n.Depth()
	inf.ReuseLevel = -1
	for l := 0; l < d; l++ {
		if inf.Distinct[l] < n.Loops[l].Trip()*inf.Distinct[l+1] {
			inf.ReuseLevel = l
			break
		}
	}
	if inf.ReuseLevel >= 0 {
		inf.Nu = inf.Distinct[inf.ReuseLevel+1]
	} else {
		inf.Nu = 1
	}
	if inf.TotalReads > 0 {
		// With reuse captured at ReuseLevel the footprint persists across
		// the reuse loop, so each distinct element loads exactly once.
		inf.SavedReads = inf.TotalReads - inf.Distinct[0]
	}
}

// flatAffine folds the reference's multi-dimensional index into the single
// affine function of the loop variables that addresses the flattened array:
// flat = ((i0·D1 + i1)·D2 + i2)…, the same arithmetic the enumerating
// oracle evaluates point by point — including any cross-dimension collisions
// an undersized dimension introduces, which per-dimension counting would
// miss. Analyze folds it once per reference group and counts every level
// from it.
func flatAffine(r *ir.ArrayRef) ir.Affine {
	var flat ir.Affine
	for dim, ix := range r.Index() {
		flat = flat.Scale(r.Array.Dims[dim]).Add(ix)
	}
	return flat
}

// distinctClosedForm counts the distinct elements the flat index touches
// while loops l..depth-1 run and loops 0..l-1 sit at their lower bounds.
// For an affine reference the count is invariant in the choice of the
// fixed outer iteration, so it is computed without enumeration.
//
// Over loops l..depth-1 the flat index is a sum of arithmetic progressions:
// loop v with trip m and flat-index coefficient c contributes
// {0, g, …, (m-1)·g} with stride g = |c·Step| (negative coefficients mirror
// the progression, which preserves cardinality; outer loops and zero
// coefficients shift it, which preserves cardinality too). The footprint is
// the cardinality of the sumset. The progressions are reduced smallest
// stride first: equal strides merge (m+n-1), and a stride that is a
// multiple q·g of a progression dense enough to absorb it (q ≤ m) folds
// into a longer progression (m + (n-1)·q). A final pair of irreducible
// progressions has the exact closed form m·n − (m−C)⁺·(n−G)⁺ with
// G = g/gcd, C = c/gcd — collisions a₁g+b₁c = a₂g+b₂c pair points along
// (a,b) → (a+C, b−G) chains, one collision per chain edge. Three or more
// are counted by sumsetSize.
func distinctClosedForm(n *ir.Nest, flat ir.Affine, l int) int {
	var buf [8]progression
	aps := buf[:0]
	for _, loop := range n.Loops[l:] {
		m := loop.Trip()
		if m == 0 {
			return 0 // empty sub-space: nothing is accessed
		}
		c := flat.Coeff(loop.Var)
		if c < 0 {
			c = -c
		}
		if g := c * loop.Step; g != 0 && m > 1 {
			aps = append(aps, progression{g, m})
		}
	}
	if len(aps) == 0 {
		return 1
	}
	slices.SortFunc(aps, func(a, b progression) int { return cmp.Compare(a.g, b.g) })
	irred := aps[:0] // reduces in place: irred never outruns the scan
	cur := aps[0]
	for _, t := range aps[1:] {
		if t.g == cur.g {
			cur.m += t.m - 1
			continue
		}
		if q := t.g / cur.g; t.g%cur.g == 0 && q <= cur.m {
			cur.m += (t.m - 1) * q
			continue
		}
		irred = append(irred, cur)
		cur = t
	}
	irred = append(irred, cur)
	switch len(irred) {
	case 1:
		return irred[0].m
	case 2:
		g, m := irred[0].g, irred[0].m
		c, k := irred[1].g, irred[1].m
		e := gcd(g, c)
		G, C := g/e, c/e
		over := 0
		if m > C && k > G {
			over = (m - C) * (k - G)
		}
		return m*k - over
	}
	return sumsetSize(irred)
}

// progression is the arithmetic progression {0, g, …, (m-1)·g}.
type progression struct{ g, m int }

// sumsetSize counts the sumset of three or more progressions exactly.
// Every element is s + k·g_L for a sum s of the other progressions and a
// step k < m_L of the longest one, L. Sums in different residue classes
// mod g_L never meet, and within one class each sum adds the run of m_L
// consecutive quotients starting at ⌊s/g_L⌋. So the sums are enumerated,
// sorted by (residue, quotient), and each class's equal-length runs merge
// in one pass: a run adds min(m_L, its start minus the previous start).
// The cost is O(P log P) for P the product of the other progressions'
// lengths — the enumerator's cost is the whole trip product.
func sumsetSize(aps []progression) int {
	longest := 0
	for i, a := range aps {
		if a.m > aps[longest].m {
			longest = i
		}
	}
	L := aps[longest]
	sums := []int{0}
	for i, a := range aps {
		if i == longest {
			continue
		}
		next := make([]int, 0, len(sums)*a.m)
		for _, s := range sums {
			for k := range a.m {
				next = append(next, s+k*a.g)
			}
		}
		sums = next
	}
	slices.SortFunc(sums, func(a, b int) int {
		if c := cmp.Compare(a%L.g, b%L.g); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	count := L.m
	for i := 1; i < len(sums); i++ {
		if sums[i]%L.g != sums[i-1]%L.g {
			count += L.m
		} else {
			count += min(L.m, (sums[i]-sums[i-1])/L.g)
		}
	}
	return count
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SortByBenefitCost returns the infos ordered by descending B/C ratio, with
// ties broken by smaller ν first (cheaper to satisfy) and then first-use
// order, so the greedy allocators are deterministic.
func SortByBenefitCost(infos []*Info) []*Info {
	out := append([]*Info(nil), infos...)
	sort.SliceStable(out, func(i, j int) bool {
		bi, bj := out[i].BenefitCost(), out[j].BenefitCost()
		if bi != bj {
			return bi > bj
		}
		if out[i].Nu != out[j].Nu {
			return out[i].Nu < out[j].Nu
		}
		return out[i].Group.FirstUse < out[j].Group.FirstUse
	})
	return out
}

// ByKey indexes infos by reference key.
func ByKey(infos []*Info) map[string]*Info {
	m := make(map[string]*Info, len(infos))
	for _, inf := range infos {
		m[inf.Key()] = inf
	}
	return m
}

// TotalFullReplacementRegisters sums ν over all references: the register
// pressure of unconstrained aggressive scalar replacement — the quantity
// whose explosion motivates the paper.
func TotalFullReplacementRegisters(infos []*Info) int {
	total := 0
	for _, inf := range infos {
		total += inf.Nu
	}
	return total
}
