package sched

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/scalarrepl"
)

// simulateFused is the fused single-pass engine: one walk of the full
// iteration space weights the classes and replays every entry's transfer
// protocol together, on top of the shared assembleResult, and returns the
// transfer counts beside the Result. It is test code, the mid-level
// differential oracle between the production engine (SimulateGraph and
// Transfers) and the seed two-pass reference (seedref_test.go).
func simulateFused(nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg Config) (res *Result, loads, stores int, err error) {
	if cfg.PortsPerRAM < 1 {
		return nil, 0, 0, fmt.Errorf("sched: PortsPerRAM must be ≥1, got %d", cfg.PortsPerRAM)
	}
	w := newIterWalker(nest, plan)
	w.run()
	counts := make(map[string]int, len(w.sigs))
	for c, sig := range w.sigs {
		if w.counts[c] > 0 {
			counts[sig] = w.counts[c]
		}
	}
	classLen := func(_ string, hit []bool) (int, int, error) {
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
	res, err = assembleResult(g, plan, cfg, counts, classLen)
	return res, w.loads, w.stores, err
}

// iterWalker is the fused single-pass iteration-space engine behind
// simulateFused. The seed implementation walked the full iteration space
// twice per design point — once to weight the iteration classes (allocating
// a map environment and a signature string per iteration) and once more in
// transferCounts to replay the register-file transfer protocol. The walker
// does both in one pass with no per-iteration allocation:
//
//   - the iteration-class signature is a pure function of the innermost
//     loop position (a reference's window-relative element identity forces
//     every outer loop to its lower bound), so the class of each innermost
//     position is precomputed once and the walk just bumps a counter;
//   - array flat indices are evaluated through precomputed per-depth affine
//     coefficients over an []int environment instead of rebuilding a
//     map[string]int and re-deriving the affine form every iteration;
//   - reuse-region boundaries are detected from the shallowest loop that
//     advanced since the previous iteration, replacing the per-iteration
//     per-file mixed-radix region-id computation.
//
// When the plan keeps nothing register-resident there is no transfer
// protocol to replay, and the walk itself is skipped: class weights follow
// analytically from the innermost-position classes times the outer trip
// product, making that case O(innermost trip) instead of O(iteration
// space).
type iterWalker struct {
	nest  *ir.Nest
	depth int

	classOf []int    // innermost position → class index
	sigs    []string // class index → signature ('1' hit / '0' miss per plan entry)
	counts  []int    // class index → iterations observed

	env      []int // loop variable values, by depth
	files    []*xferFile
	accesses []bodyAccess

	loads, stores int
}

// xferFile is the transfer-replay state of one covered plan entry: which
// window elements are register-resident and which of those are dirty.
type xferFile struct {
	entry   *scalarrepl.Entry
	level   int          // reuse level: loops outside it delimit regions
	started bool         // a region has been entered (suppresses the first flush)
	dirty   map[int]bool // resident absolute flat indices → dirty
	hitAt   []bool       // innermost position → steady-state register hit
}

// bodyAccess is one covered static reference occurrence in body order,
// with its flat element index precompiled to per-depth affine coefficients.
type bodyAccess struct {
	file      *xferFile
	isWrite   bool
	flatConst int
	flatCoef  []int // coefficient of each loop variable, by depth
}

func newIterWalker(nest *ir.Nest, plan *scalarrepl.Plan) *iterWalker {
	w := &iterWalker{nest: nest, depth: nest.Depth(), env: make([]int, nest.Depth())}
	order := plan.Order()
	if w.depth == 0 {
		// Depth-0 nests cannot carry storage plans (NewPlan rejects them);
		// mirror the seed walker's single empty-environment iteration with
		// an all-miss signature.
		sig := make([]byte, len(order))
		for i := range sig {
			sig[i] = '0'
		}
		w.classOf = []int{0}
		w.sigs = []string{string(sig)}
		w.counts = []int{0}
		return w
	}
	trip := nest.Loops[w.depth-1].Trip()

	// Classify every innermost position once; the walk then classifies an
	// iteration by position alone.
	hitAt := innerHitVectors(nest, order)
	w.classOf = make([]int, trip)
	classIdx := map[string]int{}
	sig := make([]byte, len(order))
	for pos := 0; pos < trip; pos++ {
		for i := range order {
			if hitAt[i][pos] {
				sig[i] = '1'
			} else {
				sig[i] = '0'
			}
		}
		c, ok := classIdx[string(sig)]
		if !ok {
			c = len(w.sigs)
			classIdx[string(sig)] = c
			w.sigs = append(w.sigs, string(sig))
		}
		w.classOf[pos] = c
	}
	w.counts = make([]int, len(w.sigs))

	byKey := map[string]*xferFile{}
	for i, e := range order {
		if e.Coverage == 0 {
			continue
		}
		f := &xferFile{
			entry: e,
			level: e.Info.ReuseLevel,
			dirty: make(map[int]bool, e.Coverage),
			hitAt: hitAt[i],
		}
		w.files = append(w.files, f)
		byKey[e.Info.Key()] = f
	}
	// Accesses to uncovered references are no-ops in the replay; dropping
	// them here (order among the rest is preserved) keeps them out of the
	// innermost loop.
	for _, st := range nest.Body {
		ir.WalkExpr(st.RHS, func(ex ir.Expr) {
			if r, ok := ex.(*ir.ArrayRef); ok {
				if f := byKey[r.Key()]; f != nil {
					w.accesses = append(w.accesses, w.compileAccess(r, f, false))
				}
			}
		})
		if f := byKey[st.LHS.Key()]; f != nil {
			w.accesses = append(w.accesses, w.compileAccess(st.LHS, f, true))
		}
	}
	return w
}

// compileAccess lowers one reference occurrence to its per-depth affine
// flat-index evaluator.
func (w *iterWalker) compileAccess(r *ir.ArrayRef, f *xferFile, isWrite bool) bodyAccess {
	aff := ir.AffConst(0)
	for dim, ix := range r.Index() {
		aff = aff.Scale(r.Array.Dims[dim]).Add(ix)
	}
	a := bodyAccess{file: f, isWrite: isWrite, flatConst: aff.Const, flatCoef: make([]int, w.depth)}
	for d, l := range w.nest.Loops {
		a.flatCoef[d] = aff.Coeff(l.Var)
	}
	return a
}

// run executes the fused pass: class weights plus transfer replay.
func (w *iterWalker) run() {
	if w.depth == 0 {
		w.counts[0]++
		return
	}
	if len(w.files) == 0 {
		// Nothing register-resident: no transfer protocol to replay, and
		// every outer iteration repeats the same innermost class sequence.
		outer := 1
		for _, l := range w.nest.Loops[:w.depth-1] {
			outer *= l.Trip()
		}
		if outer == 0 {
			return
		}
		for _, c := range w.classOf {
			w.counts[c] += outer
		}
		return
	}
	w.walk(0, -1)
	for _, f := range w.files {
		w.flush(f)
	}
}

// walk recurses over the loop nest. changed is the shallowest loop depth
// that advanced since the previous innermost iteration (-1 before the
// first): a file's reuse region changes exactly when a loop outside its
// reuse level advances.
func (w *iterWalker) walk(d, changed int) {
	l := w.nest.Loops[d]
	if d == w.depth-1 {
		pos := 0
		for v := l.Lo; v < l.Hi; v += l.Step {
			w.env[d] = v
			c := d
			if pos == 0 {
				c = changed
			}
			w.leaf(pos, c)
			pos++
		}
		return
	}
	first := true
	for v := l.Lo; v < l.Hi; v += l.Step {
		w.env[d] = v
		c := d
		if first {
			c = changed
			first = false
		}
		w.walk(d+1, c)
	}
}

// leaf processes one iteration point: counts its class, flushes files whose
// reuse region ended, and replays the body's accesses against the register
// files.
func (w *iterWalker) leaf(pos, changed int) {
	w.counts[w.classOf[pos]]++
	for _, f := range w.files {
		if changed < f.level {
			if f.started {
				w.flush(f)
			}
			f.started = true
		}
	}
	for i := range w.accesses {
		a := &w.accesses[i]
		f := a.file
		if !f.hitAt[pos] {
			continue
		}
		flat := a.flatConst
		for d, c := range a.flatCoef {
			if c != 0 {
				flat += c * w.env[d]
			}
		}
		if _, resident := f.dirty[flat]; !resident {
			if len(f.dirty) >= f.entry.Coverage {
				w.evict(f)
			}
			if !a.isWrite {
				w.loads++
			}
			f.dirty[flat] = false
		}
		if a.isWrite {
			f.dirty[flat] = true
		}
	}
}

// flush writes back the file's dirty elements and empties it — a reuse
// region boundary or the epilogue drain.
func (w *iterWalker) flush(f *xferFile) {
	for flat, dirty := range f.dirty {
		if dirty {
			w.stores++
		}
		delete(f.dirty, flat)
	}
}

// evict makes room for an incoming element by dropping the resident element
// with the smallest flat index (deterministic, matching the functional
// simulation), writing it back when dirty.
func (w *iterWalker) evict(f *xferFile) {
	victim, first := 0, true
	for flat := range f.dirty {
		if first || flat < victim {
			victim, first = flat, false
		}
	}
	if f.dirty[victim] {
		w.stores++
	}
	delete(f.dirty, victim)
}
