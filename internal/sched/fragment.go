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
	if err := checkSteps(nest); err != nil {
		return 0, 0, err
	}
	order := plan.Order()
	hitAt := innerHitVectors(nest, order)
	pats := accessPatterns(nest, plan)
	for i, e := range order {
		if e.Coverage == 0 {
			continue
		}
		l, s, _ := computeFragment(nest, e, pats[e.Info.Key()], hitAt[i])
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

// computeFragment replays one covered entry's transfer protocol exactly,
// in far less than one pass over the iteration space:
//
//   - regions: register state persists within a reuse region and is
//     flushed across boundaries, and the elements an affine reference
//     touches in one region are a translate of any other's — translation
//     preserves element identity and smallest-flat eviction order — so one
//     region's replay scaled by the region count is exact. Cost drops from
//     the whole space to one region sub-space (loops at and below the
//     reuse level, outer loops pinned to their lower bounds).
//
//   - steady state: at every walk depth other than the innermost (whose
//     position drives the hit vector), successive iterations of the loop
//     replay the same access sequence translated by the loop's flat-index
//     contribution coef×step per iteration — for a zero-coefficient loop
//     the very same sequence. The replay automaton is deterministic and
//     commutes with translation, so its state over those iterations is
//     eventually periodic modulo translation: each loop is collapsed by
//     walking until the state (resident set + dirty bits, flats normalized
//     by the accumulated shift) recurs, then skipping the whole cycles
//     that remain — their loads/stores repeat the detected cycle's exactly
//     and the end state is the current state translated by the skipped
//     span. Collapses compose across depths, so a BIC-shaped nest costs
//     O(transient × cycle × inner trip) instead of O(trip product), at any
//     mix of zero and non-zero interior coefficients.
//
// Eviction picks the smallest resident flat; the automaton keeps the
// resident set as one sorted run (replay.go), so that is the run's head.
//
// walked is the number of innermost iteration points the walker actually
// visited — the extrapolation effectiveness metric the regression tests
// pin (walked ≪ trip product on kernels with collapsible interior loops).
func computeFragment(nest *ir.Nest, e *scalarrepl.Entry, pattern []bool, hitAt []bool) (loads, stores, walked int) {
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
		return 0, 0, 0
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
	// subPoints[d] is the iteration-point count of one subtree below depth
	// d — what one iteration of loop d costs to walk, and so what a cycle
	// detection at depth d can hope to save per skipped iteration.
	subPoints := make([]int, depth)
	subPoints[depth-1] = 1
	for d := depth - 2; d >= 0; d-- {
		subPoints[d] = subPoints[d+1] * nest.Loops[d+1].Trip()
	}
	w := &fragWalker{
		nest: nest, depth: depth, coef: coef, subPoints: subPoints,
		dead: make([]bool, depth),
		cov:  e.Coverage, pattern: pattern, hitAt: hitAt, st: newReplay(e.Coverage),
	}
	w.walk(level, base)
	// The region-end flush writes back whatever is dirty after the walk.
	return regions * w.st.loads, regions * (w.st.stores + w.st.dirtyCount()), w.walked
}

// maxTrackedStates caps the cycle-detection history of one walk loop: past
// it, detection at that depth is abandoned and the remaining iterations
// accumulate plainly, so a huge-trip loop whose automaton state never
// recurs degrades in time, never in memory. The automaton has at most
// O(footprint^coverage) states but real affine references recur within a
// transient of O(coverage) iterations; the cap is far above that. A
// variable only so the fallback path is testable at small trip counts.
var maxTrackedStates = 4096

// fragWalker runs one reuse region of a single entry's transfer replay,
// extrapolating every walk loop whose automaton state recurs modulo
// translation. The innermost loop is always walked in full: the hit vector
// varies with its position even when the flat index does not.
type fragWalker struct {
	nest      *ir.Nest
	depth     int
	coef      []int  // flat-index coefficient per loop depth
	subPoints []int  // iteration points of one subtree below each depth
	dead      []bool // depths whose detection came up empty over a full pass
	cov       int    // entry coverage (bounds the signature size)
	pattern   []bool
	hitAt     []bool
	st        *replay
	walked    int // innermost iteration points visited (diagnostic)
}

// walk replays the subtree at depth d for one iteration of the loops above
// it, whose flat-index contribution is flat, collapsing loop d when its
// automaton state recurs. The detection branch allocates by design: it
// interns one history key per new state.
func (w *fragWalker) walk(d, flat int) {
	if d == w.depth-1 {
		w.walkInner(flat)
		return
	}
	l := w.nest.Loops[d]
	trip := l.Trip()
	// Successive iterations of this loop replay the subtree's access
	// sequence translated by delta: iteration k starts at first+k·delta.
	// The automaton state after k iterations, normalized by delta·k,
	// recurring at an earlier iteration q makes iterations q+1.. periodic
	// with period k−q: per-iteration loads and stores repeat the cycle's
	// exactly, and state after q+j iterations is the state after k+j
	// translated by −delta·(k−q). So once a recurrence is found, only the
	// remainder-of-cycle tail is walked for real; the skipped full cycles
	// contribute n×(cycle loads/stores) and one state translation by the
	// span they cover.
	first := flat + w.coef[d]*l.Lo
	delta := w.coef[d] * l.Step
	// A state snapshot costs O(coverage); one skipped iteration saves a
	// subtree walk. When the subtree is smaller than the resident set and
	// the loop short, detection costs more than the walk it could save —
	// walk plainly and let an enclosing (bigger-subtree) depth collapse.
	// A depth marked dead — a full earlier pass found no recurrence (e.g.
	// the transient spans the whole trip, stride accesses thrashing the
	// window) — walks plainly too: its later passes start from states at
	// least as irregular. Both are heuristics over which exact snapshots
	// to take; they never affect the result.
	if w.dead[d] || (w.subPoints[d] < w.cov && trip <= 4*w.cov) {
		for k := 0; k < trip; k++ {
			w.walk(d+1, first+k*delta)
		}
		return
	}
	seen := map[string]int{string(w.st.signature(0)): 0}
	cumL := []int{w.st.loads}
	cumS := []int{w.st.stores}
	tracking := true
	for k := 1; k <= trip; k++ {
		w.walk(d+1, first+(k-1)*delta)
		if k == trip {
			// Completed every iteration with detection enabled and no
			// recurrence: stop snapshotting this depth for the rest of the
			// fragment.
			w.dead[d] = tracking
			return
		}
		if !tracking {
			continue
		}
		sig := w.st.signature(delta * k)
		if q, ok := seen[string(sig)]; ok {
			cycle := k - q
			cycL := w.st.loads - cumL[q]
			cycS := w.st.stores - cumS[q]
			n := (trip - k) / cycle
			for j := 0; j < (trip-k)%cycle; j++ {
				w.walk(d+1, first+(k+j)*delta)
			}
			if n > 0 {
				w.st.loads += n * cycL
				w.st.stores += n * cycS
				w.st.translate(delta * cycle * n)
			}
			return
		}
		if len(seen) >= maxTrackedStates {
			tracking = false
			continue
		}
		seen[string(sig)] = k
		cumL = append(cumL, w.st.loads)
		cumS = append(cumS, w.st.stores)
	}
}

// walkInner replays one full sweep of the innermost loop starting at flat
// offset flat. It is the walker's per-iteration-point path, so it must not
// allocate: the hit vector gates each position, and every body occurrence
// of the entry goes straight to the automaton.
//
//repro:hotpath
func (w *fragWalker) walkInner(flat int) {
	d := w.depth - 1
	l := w.nest.Loops[d]
	pos := 0
	for v := l.Lo; v < l.Hi; v += l.Step {
		if w.hitAt[pos] {
			f := flat + w.coef[d]*v
			for _, wr := range w.pattern {
				w.st.access(f, wr)
			}
		}
		pos++
	}
	w.walked += pos
}
