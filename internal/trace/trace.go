// Package trace generates the memory-access trace of a loop nest and
// analyzes it with classical reuse-distance (LRU stack) machinery. It is
// an independent oracle for the analytic reuse package: a fully-associative
// LRU register file of size ν must reduce a reference's misses to its cold
// footprint — exactly the benefit the paper's allocators bank on — and the
// miss curve quantifies what partial allocations (β < ν) can capture.
package trace

import (
	"fmt"

	"repro/internal/ir"
)

// Event is one dynamic array access.
type Event struct {
	Key     string // static reference identity, e.g. "b[k][j]"
	Array   string
	Flat    int // flattened element index
	IsWrite bool
}

// Walk streams the nest's dynamic access trace in execution order (reads
// of each statement left to right, then its write).
func Walk(nest *ir.Nest, fn func(Event)) error {
	if err := nest.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nest.Each(func(env map[string]int) error {
		emit := func(r *ir.ArrayRef, w bool) {
			flat := 0
			for d, ix := range r.Index() {
				flat = flat*r.Array.Dims[d] + ix.Eval(env)
			}
			fn(Event{Key: r.Key(), Array: r.Array.Name, Flat: flat, IsWrite: w})
		}
		for _, st := range nest.Body {
			ir.WalkExpr(st.RHS, func(e ir.Expr) {
				if r, ok := e.(*ir.ArrayRef); ok {
					emit(r, false)
				}
			})
			emit(st.LHS, true)
		}
		return nil
	})
}

// lru is a fully-associative LRU set over element indices.
type lru struct {
	cap     int
	recency map[int]int
	clock   int
}

func newLRU(cap int) *lru { return &lru{cap: cap, recency: map[int]int{}} }

// touch accesses an element, returning whether it missed.
func (l *lru) touch(flat int) bool {
	l.clock++
	if _, ok := l.recency[flat]; ok {
		l.recency[flat] = l.clock
		return false
	}
	if len(l.recency) >= l.cap {
		victim, oldest := 0, l.clock+1
		for f, r := range l.recency {
			if r < oldest {
				victim, oldest = f, r
			}
		}
		delete(l.recency, victim)
	}
	l.recency[flat] = l.clock
	return true
}

// LRUMisses simulates a fully-associative LRU register file of the given
// capacity dedicated to one static reference and returns its miss count
// over the whole nest execution.
func LRUMisses(nest *ir.Nest, key string, capacity int) (int, error) {
	if capacity < 1 {
		return 0, fmt.Errorf("trace: capacity must be ≥1")
	}
	file := newLRU(capacity)
	misses := 0
	err := Walk(nest, func(ev Event) {
		if ev.Key != key {
			return
		}
		if file.touch(ev.Flat) {
			misses++
		}
	})
	return misses, err
}

// MissCurve returns the LRU miss counts of one reference for each file
// size — the register-count/memory-traffic trade-off curve behind the
// paper's knapsack formulation.
func MissCurve(nest *ir.Nest, key string, sizes []int) ([]int, error) {
	out := make([]int, len(sizes))
	for i, s := range sizes {
		m, err := LRUMisses(nest, key, s)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
