// Package memo is the single-flight memo every cache in this repository is
// built on: the plan-level simulation cache and the decoded-analysis memo
// of internal/dse, and the memory tier of each internal/simcache value
// kind.
//
// The first caller to claim a key runs the computation; concurrent callers
// of the same key block until it settles and share the result, and later
// callers get the settled value without blocking. A panic in the
// computation is recovered and memoized as the key's error, so it reaches
// every sharer instead of consuming the entry and leaving zero values
// behind. Get reports how each call was answered, which lets every owner
// keep its own hit/miss counters: a key is claimed exactly once, so miss
// counts are deterministic for a given set of keys whatever the goroutine
// scheduling.
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Outcome says how one Get was answered.
type Outcome uint8

const (
	Claimed Outcome = iota // this call ran the computation
	Hit                    // the key had already settled
	Waited                 // this call blocked behind another call's computation
)

// Memo is a concurrency-safe single-flight map from keys to computed values.
// The zero value is an empty memo; set What before first use so recovered
// panics carry a useful name.
type Memo[K comparable, V any] struct {
	// What names the computation in a recovered panic's error:
	// "<What> panic: <value>".
	What string
	// Wait, when non-nil, observes the nanoseconds each Waited call spent
	// blocked. Set before concurrent use.
	Wait *obs.StageStats

	mu sync.Mutex
	m  map[K]*entry[V]
}

// entry is one key's slot. done flips once the computation has settled, so
// a later caller can tell a settled hit from a wait on an in-flight
// computation; its acquire orders the reads of val and err.
type entry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

// Get returns the value of key, running compute on the first claim. Errors
// (including recovered panics) are memoized like values.
func (m *Memo[K, V]) Get(key K, compute func() (V, error)) (V, Outcome, error) {
	m.mu.Lock()
	e := m.m[key]
	claimed := e == nil
	if claimed {
		if m.m == nil {
			m.m = map[K]*entry[V]{}
		}
		e = &entry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	settle := func() {
		e.val, e.err = Do(m.What, compute)
		e.done.Store(true)
	}
	switch {
	case claimed:
		e.once.Do(settle)
		return e.val, Claimed, e.err
	case e.done.Load():
		return e.val, Hit, e.err
	}
	tm := m.Wait.Start()
	e.once.Do(settle)
	tm.Stop()
	return e.val, Waited, e.err
}

// Len returns the number of keys claimed so far.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Do runs compute with the panic capture Get applies: a panic becomes the
// error "<what> panic: <value>" and a zero value. Callers that bypass a
// memo use it so their failures read exactly like a memoized one.
func Do[V any](what string, compute func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, fmt.Errorf("%s panic: %v", what, r)
		}
	}()
	return compute()
}
