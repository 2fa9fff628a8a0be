package sched

// fragment.go is the compositional simulation engine: instead of one
// monolithic walk of the iteration space per plan (iterWalker, now a test
// oracle in walker_test.go), a plan's cycle estimate is assembled from
// independent, content-addressed pieces —
//
//   - class weights are computed analytically: an iteration's class is a
//     pure function of its innermost position (scalarrepl.Entry.HitInner),
//     so each innermost position's signature is counted once and weighted
//     by the outer trip product — no walk at all;
//
//   - each covered entry's register<->RAM transfer replay is an
//     independent automaton (its own residency window, dirty set and
//     region boundaries — entries never interact), so its loads/stores are
//     computed per entry. And because the elements an affine reference
//     touches in one reuse region are a translate of those in any other —
//     translation preserves both element identity and the smallest-flat
//     eviction order — every region replays identically: one region
//     sub-space walk (loops at and below the reuse level), multiplied by
//     the region count, is exact. Cost is Π trips of the loops inside the
//     reuse level, not the whole iteration space;
//
//   - each class is list-scheduled once per (DFG, scheduler config,
//     register-hit set), shared across every plan and allocator that
//     produces the class.
//
// With a simcache.Cache attached, fragments and class schedules are
// memoized across plans (and, file-backed, across processes): a plan
// differing from an already-simulated one in a single reference's β
// recomputes exactly that entry's fragment and any genuinely new class
// schedules — everything else is assembled from the store in
// o(iteration-space) time.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/scalarrepl"
	"repro/internal/simcache"
)

// Simulator runs compositional cycle simulations, optionally memoizing
// entry fragments and class schedules in a shared cache. The zero value
// (nil Cache) computes every piece directly and is what the package-level
// SimulateGraph uses; sweep engines attach a cache shared across all their
// plans. Safe for concurrent use.
type Simulator struct {
	// Cache memoizes entry fragments and class-schedule lengths across
	// simulations; nil disables memoization (results are identical either
	// way — the cache only removes redundant work).
	Cache *simcache.Cache

	// Obs, when non-nil, receives per-piece stage timings: fragment replays
	// split by collapse outcome ("sim/frag/cycle" when the walker skipped
	// whole cycles via steady-state detection, "sim/frag/walk" when it
	// visited every point) and class scheduling ("sim/class"). Cache hits
	// record nothing here — the cache's own Snapshot counts them.
	Obs *obs.Metrics
}

// SimulateGraph runs the compositional cycle simulation of the nest under
// the plan on a prebuilt (and already validated) body data-flow graph. The
// graph is only read, so one graph can back any number of concurrent
// simulations. The Result is identical — field for field — to the fused
// single-pass walker test oracle's and the seed reference's (see
// fragment_test.go and seedref_test.go for the differential contracts).
func (s *Simulator) SimulateGraph(nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) (*Result, error) {
	if cfg.PortsPerRAM < 1 {
		return nil, fmt.Errorf("sched: PortsPerRAM must be ≥1, got %d", cfg.PortsPerRAM)
	}
	// The walkers advance loop variables by Step; reject hand-built nests
	// with zero/negative steps instead of spinning forever.
	for _, l := range nest.Loops {
		if l.Step <= 0 {
			return nil, fmt.Errorf("sched: loop %q has non-positive step %d (validate the nest with ir.NewNest)", l.Var, l.Step)
		}
	}
	order := plan.Order()
	depth := nest.Depth()

	// Per-entry innermost hit vectors: the shared input of the analytic
	// class weights and the per-entry replays.
	hitAt := innerHitVectors(nest, order)
	trip := 0
	if depth > 0 {
		trip = nest.Loops[depth-1].Trip()
	}
	counts := classWeights(nest, order, hitAt, trip)

	// Transfer traffic: the sum of the covered entries' replay fragments.
	pats := accessPatterns(nest, plan)
	loads, stores := 0, 0
	nestFP := ""
	for i, e := range order {
		if e.Coverage == 0 {
			continue
		}
		pat := pats[e.Info.Key()]
		var frag simcache.Fragment
		if s.Cache != nil {
			if nestFP == "" {
				nestFP = nestFingerprint(nest)
			}
			i := i
			var err error
			frag, err = s.Cache.Fragment(fragmentKey(nestFP, nest, e, pat), func() (simcache.Fragment, error) {
				return s.computeFragmentObs(nest, e, pat, hitAt[i]), nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			frag = s.computeFragmentObs(nest, e, pat, hitAt[i])
		}
		loads += frag.Loads
		stores += frag.Stores
	}

	return assembleResult(g, plan, cfg, counts, loads, stores, s.classLen(g, cfg))
}

// computeFragmentObs is computeFragment plus, when Obs is attached, one
// timed observation split by collapse outcome: "sim/frag/cycle" when
// steady-state detection skipped whole cycles, "sim/frag/walk" when every
// iteration point was visited.
func (s *Simulator) computeFragmentObs(nest *ir.Nest, e *scalarrepl.Entry, pattern []bool, hitAt []bool) simcache.Fragment {
	if s.Obs == nil {
		return computeFragment(nest, e, pattern, hitAt)
	}
	t0 := time.Now()
	frag, _, collapsed := computeFragmentWalked(nest, e, pattern, hitAt)
	d := int64(time.Since(t0))
	if collapsed {
		s.Obs.Stage("sim/frag/cycle").Observe(d)
	} else {
		s.Obs.Stage("sim/frag/walk").Observe(d)
	}
	return frag
}

// classLen returns the class-length function: memoized per (DFG
// fingerprint, scheduler config, register-hit set) when a cache is
// attached, direct scheduling otherwise.
func (s *Simulator) classLen(g *dfg.Graph, cfg Config) classLenFunc {
	direct := func(hit map[string]bool) (int, int, error) {
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
		return func(_ string, hit map[string]bool, _ []*scalarrepl.Entry) (int, int, error) {
			return direct(hit)
		}
	}
	prefix := g.Fingerprint() + "|" + cfg.Lat.Fingerprint() + "|P" + fmt.Sprint(cfg.PortsPerRAM) + "|"
	return func(sig string, hit map[string]bool, order []*scalarrepl.Entry) (int, int, error) {
		// The hit set in first-use entry order is canonical: all plans of
		// one nest list entries identically, and across nests the DFG
		// fingerprint already differs.
		var b strings.Builder
		for i, e := range order {
			if sig[i] == '1' {
				b.WriteString(e.Info.Key())
				b.WriteByte(',')
			}
		}
		cl, err := s.Cache.ClassLen(prefix+b.String(), func() (simcache.ClassLen, error) {
			iter, mem, err := direct(hit)
			return simcache.ClassLen{Iter: iter, Mem: mem}, err
		})
		return cl.Iter, cl.Mem, err
	}
}

// classWeights computes the iteration-class weights analytically: the class
// of an iteration depends only on its innermost position, and every
// innermost position occurs exactly once per combination of outer loop
// values. Only classes with a positive count are returned (zero-trip nests
// yield none), matching the walkers' filtered output exactly.
func classWeights(nest *ir.Nest, order []*scalarrepl.Entry, hitAt [][]bool, trip int) map[string]int {
	counts := map[string]int{}
	if nest.Depth() == 0 {
		// Depth-0 nests execute one (empty-environment) iteration with an
		// all-miss signature, mirroring the seed walker.
		counts[strings.Repeat("0", len(order))] = 1
		return counts
	}
	outer := 1
	for _, l := range nest.Loops[:nest.Depth()-1] {
		outer *= l.Trip()
	}
	if outer == 0 {
		return counts
	}
	sig := make([]byte, len(order))
	for pos := 0; pos < trip; pos++ {
		for i := range order {
			if hitAt[i][pos] {
				sig[i] = '1'
			} else {
				sig[i] = '0'
			}
		}
		counts[string(sig)] += outer
	}
	return counts
}

// innerHitVectors precomputes, per plan entry, the steady-state register
// hit outcome at each innermost loop position — the single input both the
// compositional engine and the fused walker test oracle classify
// iterations and gate replays with. Nil for depth-0 nests.
func innerHitVectors(nest *ir.Nest, order []*scalarrepl.Entry) [][]bool {
	depth := nest.Depth()
	if depth == 0 {
		return nil
	}
	inner := nest.Loops[depth-1]
	hitAt := make([][]bool, len(order))
	for i, e := range order {
		hitAt[i] = make([]bool, inner.Trip())
		pos := 0
		for v := inner.Lo; v < inner.Hi; v += inner.Step {
			hitAt[i][pos] = e.HitInner(v)
			pos++
		}
	}
	return hitAt
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

// nestFingerprint pins the loop bounds the replay iterates over. Loop
// variable names are deliberately absent (the replay reads coefficients by
// depth), so structurally identical nests share fragments.
//
//repro:nohash Nest.Name — replay coefficients are read by depth; renaming-invariant
//repro:nohash Nest.Body — the body occurrence pattern is hashed separately into fragmentKey
func nestFingerprint(nest *ir.Nest) string {
	var b strings.Builder
	for _, l := range nest.Loops {
		fmt.Fprintf(&b, "%d:%d:%d;", l.Lo, l.Hi, l.Step)
	}
	return b.String()
}

// fragmentKey is the content address of one entry's replay: loop bounds ×
// entry replay fingerprint × body occurrence pattern.
func fragmentKey(nestFP string, nest *ir.Nest, e *scalarrepl.Entry, pattern []bool) string {
	var b strings.Builder
	b.WriteString(nestFP)
	b.WriteByte('|')
	b.WriteString(e.ReplayFingerprint(nest))
	b.WriteByte('|')
	for _, w := range pattern {
		if w {
			b.WriteByte('w')
		} else {
			b.WriteByte('r')
		}
	}
	return b.String()
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
func computeFragment(nest *ir.Nest, e *scalarrepl.Entry, pattern []bool, hitAt []bool) simcache.Fragment {
	frag, _, _ := computeFragmentWalked(nest, e, pattern, hitAt)
	return frag
}

// computeFragmentWalked is computeFragment plus the number of innermost
// iteration points the walker actually visited — the extrapolation
// effectiveness metric the regression tests pin (walked ≪ trip product on
// kernels with collapsible interior loops) — and whether any walk loop
// collapsed via steady-state cycle detection (the outcome obs splits
// fragment timings by).
func computeFragmentWalked(nest *ir.Nest, e *scalarrepl.Entry, pattern []bool, hitAt []bool) (simcache.Fragment, int, bool) {
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
		return simcache.Fragment{}, 0, false
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
	stores := w.st.stores + w.st.dirtyCount()
	return simcache.Fragment{Loads: regions * w.st.loads, Stores: regions * stores}, w.walked, w.collapsed
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
	walked    int  // innermost iteration points visited (diagnostic)
	collapsed bool // some depth skipped cycles via steady-state detection
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
			w.collapsed = true
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
