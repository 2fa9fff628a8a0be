package sched

// fragment.go counts a plan's register<->RAM transfers on demand. The cycle
// estimate never reads them (they overlap loop execution), so nothing on a
// sweep's path replays them; cmd/regalloc and the differential tests do,
// through Transfers.
//
// Each covered entry's transfer replay is an independent automaton (its own
// residency window, dirty set and region boundaries — entries never
// interact), so a plan's loads and stores are the sum of per-entry
// fragments, each computed from one reuse region (computeFragment).

import (
	"repro/internal/ir"
	"repro/internal/scalarrepl"
)

// Transfers counts the register-file transfers of the nest under the plan:
// fill loads (first touches, sliding-window refills) and write-back stores
// (evictions of dirty elements, region flushes and the epilogue drain). In
// steady state they overlap loop execution through the load/store unit —
// the RAM ports are idle most cycles — so they are traffic, not stalls, and
// no cycle count includes them. The counts equal the seed's full-space
// replay and the functional simulation's fills and write-backs exactly.
func Transfers(nest *ir.Nest, plan *scalarrepl.Plan) (loads, stores int, err error) {
	if err := checkNest(nest, plan); err != nil {
		return 0, 0, err
	}
	pats := accessPatterns(nest, plan)
	for _, e := range plan.Order() {
		if e.Coverage == 0 {
			continue
		}
		l, s := computeFragment(nest, e, pats[e.Info.Key()], e.InnerHits())
		loads += l
		stores += s
	}
	return loads, stores, nil
}

// accessPatterns collects, for every covered plan entry, its occurrence
// pattern: one flag per body occurrence of the reference, in body order,
// true for writes. The pattern is the only thing the replay reads from the
// loop body (occurrences of one static reference share one affine form).
func accessPatterns(nest *ir.Nest, plan *scalarrepl.Plan) map[string][]bool {
	covered := map[string]bool{}
	for _, e := range plan.Order() {
		if e.Coverage > 0 {
			covered[e.Info.Key()] = true
		}
	}
	if len(covered) == 0 {
		return nil
	}
	pats := make(map[string][]bool, len(covered))
	for _, st := range nest.Body {
		ir.WalkExpr(st.RHS, func(ex ir.Expr) {
			if r, ok := ex.(*ir.ArrayRef); ok && covered[r.Key()] {
				pats[r.Key()] = append(pats[r.Key()], false)
			}
		})
		if covered[st.LHS.Key()] {
			pats[st.LHS.Key()] = append(pats[st.LHS.Key()], true)
		}
	}
	return pats
}

// computeFragment replays one covered entry's transfer protocol exactly
// over one reuse region. Register state persists within a reuse region and
// is flushed across boundaries, and the elements an affine reference
// touches in one region are a translate of any other's — translation
// preserves element identity and smallest-flat eviction order — so one
// region's replay scaled by the region count is exact. The walk covers one
// region sub-space: the loops at and below the reuse level, with the outer
// loops pinned to their lower bounds.
//
// The entry hits at exactly its first hits innermost positions
// (scalarrepl.Entry.InnerHits), so each innermost sweep replays those and
// stops. Eviction picks the smallest resident flat; the automaton keeps
// the resident set as one sorted run (replay.go), so that is the run's
// head.
func computeFragment(nest *ir.Nest, e *scalarrepl.Entry, pattern []bool, hits int) (loads, stores int) {
	depth := nest.Depth()
	level := e.Info.ReuseLevel
	if level < 0 {
		level = 0
	}
	regions := 1
	for _, l := range nest.Loops[:level] {
		regions *= l.Trip()
	}
	if depth == 0 || regions == 0 || len(pattern) == 0 {
		return 0, 0
	}
	aff := e.FlatAffine()
	base := aff.Const
	coef := make([]int, depth)
	for d, l := range nest.Loops {
		coef[d] = aff.Coeff(l.Var)
		if d < level {
			base += coef[d] * l.Lo
		}
	}
	w := &fragWalker{nest: nest, coef: coef, pattern: pattern, hits: hits, st: newReplay(e.Coverage)}
	w.walk(level, base)
	// The region-end flush writes back whatever is dirty after the walk.
	return regions * w.st.loads, regions * (w.st.stores + w.st.dirtyCount())
}

// fragWalker replays one reuse region of a single entry's transfers.
type fragWalker struct {
	nest    *ir.Nest
	coef    []int // flat-index coefficient per loop depth
	pattern []bool
	hits    int // leading innermost positions that hit registers
	st      *replay
}

// walk replays the subtree at depth d for one iteration of the loops above
// it, whose flat-index contribution is flat.
func (w *fragWalker) walk(d, flat int) {
	if d == len(w.coef)-1 {
		w.walkInner(flat)
		return
	}
	l := w.nest.Loops[d]
	for v := l.Lo; v < l.Hi; v += l.Step {
		w.walk(d+1, flat+w.coef[d]*v)
	}
}

// walkInner replays one sweep of the innermost loop starting at flat
// offset flat. It is the walker's per-iteration-point path, so it must not
// allocate: the sweep stops after the hits leading positions, the only
// ones that touch registers, and every body occurrence of the entry goes
// straight to the automaton.
//
//repro:hotpath
func (w *fragWalker) walkInner(flat int) {
	d := len(w.coef) - 1
	l := w.nest.Loops[d]
	v := l.Lo
	for range w.hits {
		f := flat + w.coef[d]*v
		for _, wr := range w.pattern {
			w.st.access(f, wr)
		}
		v += l.Step
	}
}
