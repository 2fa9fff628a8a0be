// Package deps computes exact data dependences of a loop nest — the
// foundation the paper's reuse analysis rests on ("data reuse analysis for
// array variables in a loop nest relies on the concept of dependence
// distance"). Because the supported program class has compile-time bounds,
// dependences are derived exactly by scanning the access trace rather than
// by conservative symbolic tests.
//
// The package classifies flow (RAW), anti (WAR) and output (WAW)
// dependences with their distance vectors, and answers the legality
// question for loop interchange: swapping two loops is legal iff it leaves
// every dependence lexicographically positive.
package deps

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Kind classifies a dependence.
type Kind int

const (
	// Flow is a read-after-write (true) dependence.
	Flow Kind = iota
	// Anti is a write-after-read dependence.
	Anti
	// Output is a write-after-write dependence.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	default:
		return "output"
	}
}

// Dependence is one loop-carried or loop-independent dependence between
// two static references, summarized by its iteration-distance vector.
type Dependence struct {
	Kind     Kind
	Array    string
	From, To string // static reference keys
	// Distance is the iteration-space distance (sink iteration minus
	// source iteration), one entry per loop, outermost first. The zero
	// vector denotes a loop-independent dependence within one iteration.
	Distance []int
}

func (d Dependence) String() string {
	parts := make([]string, len(d.Distance))
	for i, v := range d.Distance {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("%s %s→%s (%s) dist=(%s)", d.Kind, d.From, d.To, d.Array, strings.Join(parts, ","))
}

// access is one dynamic touch of an element.
type access struct {
	iter    []int
	key     string
	isWrite bool
	seq     int
}

// Analyze computes the set of distinct dependences of the nest. Each
// (kind, from, to, distance) tuple is reported once however many dynamic
// instances realize it.
func Analyze(nest *ir.Nest) ([]Dependence, error) {
	if err := nest.Validate(); err != nil {
		return nil, fmt.Errorf("deps: %w", err)
	}
	// For each array element, the chronological access list.
	type elemKey struct {
		arr  string
		flat int
	}
	hist := map[elemKey][]access{}
	seq := 0
	record := func(r *ir.ArrayRef, w bool, env map[string]int) {
		flat := 0
		for d, ix := range r.Index() {
			flat = flat*r.Array.Dims[d] + ix.Eval(env)
		}
		iter := make([]int, len(nest.Loops))
		for i, l := range nest.Loops {
			iter[i] = env[l.Var]
		}
		k := elemKey{r.Array.Name, flat}
		hist[k] = append(hist[k], access{iter: iter, key: r.Key(), isWrite: w, seq: seq})
		seq++
	}
	_ = nest.Each(func(env map[string]int) error { // records, never fails
		for _, st := range nest.Body {
			ir.WalkExpr(st.RHS, func(e ir.Expr) {
				if r, ok := e.(*ir.ArrayRef); ok {
					record(r, false, env)
				}
			})
			record(st.LHS, true, env)
		}
		return nil
	})

	seen := map[string]Dependence{}
	for _, accs := range hist {
		// Dependences connect each access to the most recent conflicting
		// one: a write depends on everything since the previous write; a
		// read depends on the last write.
		lastWrite := -1
		for i, a := range accs {
			if a.isWrite {
				for j := lastWrite + 1; j < i; j++ {
					addDep(seen, accs[j], a) // anti (or output when j is the write)
				}
				if lastWrite >= 0 {
					addDep(seen, accs[lastWrite], a)
				}
				lastWrite = i
			} else if lastWrite >= 0 {
				addDep(seen, accs[lastWrite], a)
			}
		}
	}
	out := make([]Dependence, 0, len(seen))
	for _, d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

func addDep(seen map[string]Dependence, src, dst access) {
	if !src.isWrite && !dst.isWrite {
		return
	}
	var kind Kind
	switch {
	case src.isWrite && dst.isWrite:
		kind = Output
	case src.isWrite:
		kind = Flow
	default:
		kind = Anti
	}
	dist := make([]int, len(src.iter))
	for i := range dist {
		dist[i] = dst.iter[i] - src.iter[i]
	}
	d := Dependence{Kind: kind, Array: "", From: src.key, To: dst.key, Distance: dist}
	// Array name from the key prefix (up to the first bracket).
	if i := strings.Index(src.key, "["); i > 0 {
		d.Array = src.key[:i]
	}
	seen[d.String()] = d
}

// Carrier returns the loop level that carries the dependence (the first
// non-zero distance component), or -1 for loop-independent dependences.
func (d Dependence) Carrier() int {
	for i, v := range d.Distance {
		if v != 0 {
			return i
		}
	}
	return -1
}

// lexPositive reports whether the vector is lexicographically positive or
// zero (a legal execution-order dependence).
func lexNonNegative(v []int) bool {
	for _, x := range v {
		if x > 0 {
			return true
		}
		if x < 0 {
			return false
		}
	}
	return true
}

// InterchangeLegal reports whether swapping loops p and q (0-based levels)
// preserves every dependence's execution order: each distance vector must
// remain lexicographically non-negative after its components p and q swap.
func InterchangeLegal(nest *ir.Nest, p, q int) (bool, []Dependence, error) {
	if p < 0 || q < 0 || p >= nest.Depth() || q >= nest.Depth() || p == q {
		return false, nil, fmt.Errorf("deps: invalid loop pair (%d,%d) for depth %d", p, q, nest.Depth())
	}
	all, err := Analyze(nest)
	if err != nil {
		return false, nil, err
	}
	var violations []Dependence
	for _, d := range all {
		v := append([]int(nil), d.Distance...)
		v[p], v[q] = v[q], v[p]
		if !lexNonNegative(v) {
			violations = append(violations, d)
		}
	}
	return len(violations) == 0, violations, nil
}
