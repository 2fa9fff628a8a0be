// Package scalarrepl turns a register allocation (β registers per array
// reference) into an executable storage plan: for every dynamic access it
// decides whether the access is served by the register file or by a RAM
// block, and how data moves between the two at reuse-region boundaries.
//
// The residency rule mirrors the paper's counting model. A reference with
// coverage c keeps register-resident the first c elements of its footprint
// within one innermost-loop sweep (its "window"); accesses whose window
// ordinal falls below c are steady-state register hits — e.g. with
// β(d)=12 of ν(d)=30, the k<12 iterations hit registers, exactly the
// paper's PR-RA narrative. Window refills across outer iterations are
// prefetchable and accounted as transfer traffic, not as stalls on the
// loop's critical path; the pre-peeled first-touch loads and the epilogue
// write-backs are likewise transfer traffic.
//
// Coverage is derived from β as:
//
//	0           when the reference has no temporal reuse (a streaming
//	            access must touch RAM every iteration regardless of β),
//	            or β == 1 with ν > 1 (the lone staging register exploits
//	            no reuse), or the array is aliased by another written
//	            reference (consistency cannot be guaranteed);
//	min(β, ν)   otherwise.
package scalarrepl

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/ir"
	"repro/internal/reuse"
)

// Plan is the storage plan for one nest under one allocation.
type Plan struct {
	Nest *ir.Nest
	// order lists the entries in first-use order: order[i] is the entry of
	// the reference numbered i (ir.RefGroup.ID).
	order []*Entry
	// byKey indexes order by reference key for ByKey, built on first use:
	// the functional simulation and code generation look entries up by
	// key, the sweep's plan and simulation never do.
	byKeyOnce sync.Once         //repro:nohash lookup index over order, never identity
	byKey     map[string]*Entry //repro:nohash lookup index over order, never identity
	fpOnce    sync.Once         //repro:nohash memo of Fingerprint's own result
	fp        string            //repro:nohash memo of Fingerprint's own result
}

// Entry is the storage decision for one static reference.
type Entry struct {
	Info     *reuse.Info
	Beta     int // registers granted by the allocator
	Coverage int // elements of the innermost window held in registers
	// WriteFirst reports that the reference's first occurrence in body
	// order is a write (so covered elements need no initial load).
	WriteFirst bool
	// Aliased reports that the array is written and another static
	// reference touches it too (ir.RefGroup.Aliased), so register residency
	// is disabled to preserve consistency.
	Aliased bool

	// The flat element index of an affine reference is itself an affine
	// function of the loop variables (Info.Flat). With every outer loop at
	// its lower bound, one innermost sweep touches c + innerCoef·v for a
	// constant c: a single element when innerCoef is 0, and a new element
	// on every iteration otherwise. So the window and its first-touch
	// ordinals are closed forms of the innermost loop, and the per-access
	// residency test is O(1) arithmetic.
	//repro:nohash derived in NewPlan from the nest
	inner ir.Loop // the nest's innermost loop
	//repro:nohash derived from Info.Flat
	innerCoef int // Info.Flat coefficient of the innermost variable
	//repro:nohash derived from Info.Flat, Coverage and the loop bounds
	rotating bool // covered window is collision-free mod Coverage
}

// FlatAffine returns the reference's flat element index as an affine
// function of the loop variables.
func (e *Entry) FlatAffine() ir.Affine { return e.Info.Flat }

// NewPlan builds the storage plan for the nest, reuse summary and register
// assignment. beta holds β per reference in infos order, one entry each
// (core.Allocation.Beta).
func NewPlan(nest *ir.Nest, infos []*reuse.Info, beta []int) (*Plan, error) {
	if nest.Depth() == 0 {
		return nil, fmt.Errorf("scalarrepl: empty nest")
	}
	// The window ordinals below divide by Step, and every downstream walker
	// advances loop variables by it; a hand-built nest that skipped
	// ir.NewNest / Validate could otherwise hang them with a zero or
	// negative step.
	for _, l := range nest.Loops {
		if l.Step <= 0 {
			return nil, fmt.Errorf("scalarrepl: loop %q has non-positive step %d (validate the nest with ir.NewNest)", l.Var, l.Step)
		}
	}
	if len(beta) != len(infos) {
		return nil, fmt.Errorf("scalarrepl: %d register assignments for %d references", len(beta), len(infos))
	}
	p := &Plan{Nest: nest, order: make([]*Entry, len(infos))}
	inner := nest.Loops[nest.Depth()-1]
	for i, inf := range infos {
		b := beta[i]
		if b < 1 {
			return nil, fmt.Errorf("scalarrepl: %s has β=%d, want ≥1", inf.Key(), b)
		}
		e := &Entry{
			Info:       inf,
			Beta:       b,
			WriteFirst: inf.Group.WriteFirst,
			Aliased:    inf.Group.Aliased,
		}
		switch {
		case e.Aliased:
			e.Coverage = 0
		case inf.ReuseLevel < 0:
			e.Coverage = 0
		case b >= inf.Nu:
			e.Coverage = inf.Nu
		case b >= 2:
			e.Coverage = b
		default:
			e.Coverage = 0
		}
		e.buildWindow(inner)
		p.order[i] = e
	}
	return p, nil
}

// buildWindow derives the closed-form residency window of one
// innermost-loop sweep.
func (e *Entry) buildWindow(inner ir.Loop) {
	e.inner = inner
	e.innerCoef = e.Info.Flat.Coeff(inner.Var)
	if e.Coverage > 0 {
		// The covered ordinals 0..m−1 touch flats |innerCoef·Step| apart.
		// Two of them share a residue mod Coverage iff their distance is a
		// multiple of Coverage/gcd(|innerCoef·Step|, Coverage) positions.
		stride := e.innerCoef * inner.Step
		if stride < 0 {
			stride = -stride
		}
		e.rotating = min(e.Coverage, e.WindowSize()) <= e.Coverage/gcd(stride, e.Coverage)
	}
}

// gcd returns the greatest common divisor of a ≥ 0 and b > 0 (gcd(0, b) = b).
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ordinal returns the first-touch ordinal, within one innermost sweep, of
// the element the reference touches when the innermost variable is v: the
// iteration position (v−Lo)/Step, or 0 when the innermost coefficient is
// zero and every iteration touches the window's single element. A value
// outside the plan's innermost loop fails loudly rather than silently
// misclassify.
func (e *Entry) ordinal(v int) int {
	l := e.inner
	if v < l.Lo || v >= l.Hi || (v-l.Lo)%l.Step != 0 {
		panic(fmt.Sprintf("scalarrepl: %s: innermost value %d outside the plan's loop %s", e.Info.Key(), v, l.Var))
	}
	if e.innerCoef == 0 {
		return 0
	}
	return (v - l.Lo) / l.Step
}

// WindowOrdinal returns the access's position within the innermost window
// at the given iteration.
func (e *Entry) WindowOrdinal(env map[string]int) int { return e.ordinal(env[e.inner.Var]) }

// Hit reports whether the access at the given iteration is a steady-state
// register hit.
func (e *Entry) Hit(env map[string]int) bool {
	return e.Coverage > 0 && e.WindowOrdinal(env) < e.Coverage
}

// HitInner reports whether the access hits registers when the innermost
// loop variable has value v. The window-relative element identity — and so
// the hit/miss outcome — depends only on the innermost position (the
// window forces every outer loop to its lower bound), which lets
// iteration-space walkers classify an iteration from its innermost index
// alone, without building an environment.
func (e *Entry) HitInner(v int) bool {
	return e.Coverage > 0 && e.ordinal(v) < e.Coverage
}

// InnerHits returns the number of leading innermost positions at which
// the access hits registers: HitInner holds at exactly the positions
// below it. Ordinals grow with the position (or stay 0 when the innermost
// coefficient is 0), so the hits are a prefix of the sweep: none without
// coverage, every position when the coefficient is 0, and the first
// min(Coverage, trip) otherwise.
func (e *Entry) InnerHits() int {
	switch {
	case e.Coverage == 0:
		return 0
	case e.innerCoef == 0:
		return e.inner.Trip()
	}
	return min(e.Coverage, e.inner.Trip())
}

// FullyReplaced reports whether every access of the reference hits.
func (e *Entry) FullyReplaced() bool {
	return e.Coverage > 0 && e.Coverage >= e.WindowSize()
}

// WindowSize returns the number of distinct elements in one innermost-loop
// sweep of the reference: the innermost trip count, or one element when
// the innermost coefficient is zero (none for an empty loop).
func (e *Entry) WindowSize() int {
	if e.innerCoef == 0 {
		return min(1, e.inner.Trip())
	}
	return e.inner.Trip()
}

// RotatingSlots reports whether a direct-mapped register bank of size
// Coverage can address the covered window by element-index modulo
// Coverage without collisions. When true, a sliding window rotates through
// the bank — the new element landing exactly in the slot the departing
// element frees — so hardware register banks capture the same reuse as a
// fully-associative file. Residue distinctness is translation-invariant,
// so one window position decides it.
func (e *Entry) RotatingSlots() bool { return e.rotating }

// SlotOf returns the register-bank slot for an element's absolute flat
// index under the bank's addressing scheme (rotating modulo when
// collision-free, window ordinal otherwise).
func (e *Entry) SlotOf(env map[string]int) int {
	if e.RotatingSlots() {
		flat := e.Info.Flat.Eval(env)
		return ((flat % e.Coverage) + e.Coverage) % e.Coverage
	}
	return e.WindowOrdinal(env)
}

// RegionOf returns an identifier of the reuse region the iteration belongs
// to: the combination of the loop indices outside the reuse level. Register
// contents persist within a region and are flushed/refilled across region
// boundaries. References with global reuse (level 0) live in a single
// region (-1 sentinel aside, the id is 0).
func (e *Entry) RegionOf(nest *ir.Nest, env map[string]int) int {
	l := e.Info.ReuseLevel
	if l <= 0 {
		return 0
	}
	id := 0
	for d := 0; d < l; d++ {
		loop := nest.Loops[d]
		id = id*loop.Trip() + (env[loop.Var]-loop.Lo)/loop.Step
	}
	return id
}

// ByKey returns the entry for a reference key (nil when absent). The
// index is built on the first call; concurrent callers share it.
func (p *Plan) ByKey(key string) *Entry {
	p.byKeyOnce.Do(func() {
		p.byKey = make(map[string]*Entry, len(p.order))
		for _, e := range p.order {
			p.byKey[e.Info.Key()] = e
		}
	})
	return p.byKey[key]
}

// Order returns the plan entries in first-use order.
func (p *Plan) Order() []*Entry { return p.order }

// HitKeys returns, for the given iteration, the set of reference keys whose
// access hits registers — the scheduler's iteration-class signature.
func (p *Plan) HitKeys(env map[string]int) string {
	sig := make([]byte, len(p.order))
	for i, e := range p.order {
		if e.Hit(env) {
			sig[i] = '1'
		} else {
			sig[i] = '0'
		}
	}
	return string(sig)
}

// Fingerprint returns a canonical string identifying the plan's
// simulation-relevant content: every entry's reference key, β, coverage,
// write-first flag and alias flag, in first-use order. Two plans over the
// same nest with equal fingerprints behave identically under simulation
// (residency windows and regions are derived from the nest and the reuse
// summary, which the entry keys pin down), so cross-design-point caches can
// key on (kernel, fingerprint, scheduler config) to share one simulation
// among all points whose allocators converged to the same β vector. The
// string is rendered on the first call; a plan shared by many designs
// renders it once.
//
//repro:nohash Plan.Nest — cache keys carry the kernel name, which pins the nest
func (p *Plan) Fingerprint() string {
	p.fpOnce.Do(func() {
		n := 0
		for _, e := range p.order {
			n += len(e.Info.Key()) + 32 // 20 bytes of fixed text, 12 of digits
		}
		b := make([]byte, 0, n)
		for _, e := range p.order {
			b = append(b, e.Info.Key()...)
			b = append(b, "=β"...)
			b = strconv.AppendInt(b, int64(e.Beta), 10)
			b = append(b, ",c"...)
			b = strconv.AppendInt(b, int64(e.Coverage), 10)
			b = append(b, ",w"...)
			b = strconv.AppendBool(b, e.WriteFirst)
			b = append(b, ",a"...)
			b = strconv.AppendBool(b, e.Aliased)
			b = append(b, ';')
		}
		p.fp = string(b)
	})
	return p.fp
}

// TotalRegisters sums β across the plan (diagnostic).
func (p *Plan) TotalRegisters() int {
	t := 0
	for _, e := range p.order {
		t += e.Beta
	}
	return t
}
