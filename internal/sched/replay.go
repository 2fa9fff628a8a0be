package sched

import "encoding/binary"

// replay is the transfer-protocol automaton of one covered entry: which
// window elements are register-resident, which of those are dirty, and the
// transfer traffic so far. Semantics match the xferFile of the fused
// walker test oracle (walker_test.go) exactly — first touch loads (reads only), capacity eviction of the
// smallest resident flat (write-back when dirty), flush on demand.
//
// The resident set is one run of slots sorted by flat, buf[head:tail],
// inside a buffer of twice the capacity. Membership is a binary search.
// Evicting the smallest element advances head, so a new minimum lands in
// the slot below the run — after an eviction, the victim's. A new maximum
// (the sliding-window case) appends at tail; the run is compacted to the
// front of the buffer only when tail reaches its end, at least capacity
// appends apart, so appends cost amortized O(1). The dirty count is
// maintained incrementally, so the per-subtree walker's state snapshots
// and the region-end flush never rescan the resident set.
type replay struct {
	capacity      int
	buf           []slot // the resident set is buf[head:tail], ascending by flat
	head, tail    int
	ndirty        int // resident elements with the dirty bit set
	loads, stores int

	// Scratch buffer reused across signature calls: the per-subtree walker
	// takes a snapshot per iteration of every non-innermost walk loop, so
	// building one must not allocate. Callers consume the returned bytes
	// (map probe or interning copy) before the next signature call.
	sigBuf []byte
}

// slot is one register-resident window element.
type slot struct {
	flat  int
	dirty bool
}

func newReplay(capacity int) *replay {
	return &replay{capacity: capacity, buf: make([]slot, 2*capacity)}
}

// access replays one body occurrence (w = write) against the file.
//
//repro:hotpath
func (r *replay) access(flat int, w bool) {
	i := r.search(flat)
	if i < r.tail && r.buf[i].flat == flat {
		if w && !r.buf[i].dirty {
			r.buf[i].dirty = true
			r.ndirty++
		}
		return
	}
	if r.tail-r.head >= r.capacity {
		// Evict the smallest resident flat, writing it back when dirty.
		if r.buf[r.head].dirty {
			r.stores++
			r.ndirty--
		}
		r.head++
	}
	if w {
		r.ndirty++
	} else {
		r.loads++
	}
	r.insert(i, slot{flat: flat, dirty: w})
}

// search returns the run position of flat, or the position it would be
// inserted at: the first i in [head, tail] with buf[i].flat ≥ flat.
//
//repro:hotpath
func (r *replay) search(flat int) int {
	lo, hi := r.head, r.tail
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.buf[m].flat < flat {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert places a non-resident element at position i, which search
// returned before any eviction: i ≤ head means s is the new minimum.
//
//repro:hotpath
func (r *replay) insert(i int, s slot) {
	if i <= r.head && r.head > 0 {
		r.head--
		r.buf[r.head] = s
		return
	}
	if r.tail == len(r.buf) {
		n := copy(r.buf, r.buf[r.head:r.tail])
		i -= r.head
		r.head, r.tail = 0, n
	}
	copy(r.buf[i+1:r.tail+1], r.buf[i:r.tail])
	r.buf[i] = s
	r.tail++
}

// dirtyCount returns how many resident elements a flush would write back.
// O(1): the count is maintained by access/eviction.
//
//repro:hotpath
func (r *replay) dirtyCount() int { return r.ndirty }

// signature renders the automaton state (resident flats with dirty bits)
// canonically, normalized by subtracting offset from every flat — the
// translation-aware form the per-subtree cycle detector compares: two
// states yield equal signatures iff one is the other translated by the
// difference of their offsets, dirty bits aligned. Transfer counters are
// excluded — they are outputs, not state. The run is already in flat
// order, so it is read as is. The returned slice aliases an internal
// scratch buffer valid until the next signature call; detectors probe maps
// with string(sig) (no allocation) and copy only on insert.
//
//repro:hotpath
func (r *replay) signature(offset int) []byte {
	buf := r.sigBuf[:0]
	for _, s := range r.buf[r.head:r.tail] {
		buf = binary.AppendVarint(buf, int64(s.flat-offset))
		if s.dirty {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	r.sigBuf = buf
	return buf
}

// translate shifts every resident flat by delta, preserving dirty bits and
// counters. Used when the cycle detector skips extrapolated iterations of a
// non-zero-coefficient loop: the automaton state after the skipped span is
// the current state translated by the span's accumulated flat offset. A
// uniform shift preserves the run's order, so it is shifted in place.
//
//repro:hotpath
func (r *replay) translate(delta int) {
	for i := r.head; i < r.tail; i++ {
		r.buf[i].flat += delta
	}
}
