package sched

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// heapReplay is the map + min-heap transfer automaton the sorted-run replay
// replaced, kept as its differential oracle: the resident set is a map from
// flat to dirty bit, mirrored in a min-heap for eviction, and snapshots
// copy and sort the heap.
type heapReplay struct {
	capacity      int
	dirty         map[int]bool
	heap          []int // min-heap over the resident flats
	ndirty        int
	loads, stores int
}

func newHeapReplay(capacity int) *heapReplay {
	return &heapReplay{capacity: capacity, dirty: make(map[int]bool, capacity)}
}

func (r *heapReplay) access(flat int, w bool) {
	if _, resident := r.dirty[flat]; !resident {
		if len(r.dirty) >= r.capacity {
			victim := r.popMin()
			if r.dirty[victim] {
				r.stores++
				r.ndirty--
			}
			delete(r.dirty, victim)
		}
		if !w {
			r.loads++
		}
		r.dirty[flat] = false
		r.push(flat)
	}
	if w && !r.dirty[flat] {
		r.dirty[flat] = true
		r.ndirty++
	}
}

func (r *heapReplay) signature(offset int) []byte {
	flats := append([]int(nil), r.heap...)
	sort.Ints(flats)
	var buf []byte
	for _, f := range flats {
		buf = binary.AppendVarint(buf, int64(f-offset))
		if r.dirty[f] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func (r *heapReplay) translate(delta int) {
	shifted := make(map[int]bool, len(r.dirty))
	for f, d := range r.dirty {
		shifted[f+delta] = d
	}
	r.dirty = shifted
	for i := range r.heap {
		r.heap[i] += delta
	}
}

func (r *heapReplay) push(f int) {
	r.heap = append(r.heap, f)
	for i := len(r.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if r.heap[p] <= r.heap[i] {
			break
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

func (r *heapReplay) popMin() int {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	for i := 0; ; {
		l, rt, s := 2*i+1, 2*i+2, i
		if l < last && r.heap[l] < r.heap[s] {
			s = l
		}
		if rt < last && r.heap[rt] < r.heap[s] {
			s = rt
		}
		if s == i {
			break
		}
		r.heap[i], r.heap[s] = r.heap[s], r.heap[i]
		i = s
	}
	return top
}

// replayShapes are the access shapes the differential drives, as flat
// generators over the step index: ascending (the sliding window — every
// new element a new maximum, exercising the tail append and compaction),
// descending (every new element a new minimum, exercising the head slot),
// and random over a narrow and a wide range (mid-run inserts, hits, and
// evictions of dirty and clean elements).
var replayShapes = []struct {
	name string
	flat func(rng *rand.Rand, i int) int
}{
	{"ascending", func(_ *rand.Rand, i int) int { return i / 2 }},
	{"descending", func(_ *rand.Rand, i int) int { return -i / 2 }},
	{"random-narrow", func(rng *rand.Rand, _ int) int { return rng.Intn(12) }},
	{"random-wide", func(rng *rand.Rand, _ int) int { return rng.Intn(200) - 100 }},
}

// TestReplayMatchesHeapOracle runs the sorted-run automaton against the
// map + heap oracle on every access shape at several capacities, with a
// translation every 37 steps: loads, stores, the dirty count and the
// normalized signature must agree after every step.
func TestReplayMatchesHeapOracle(t *testing.T) {
	for _, shape := range replayShapes {
		for _, capacity := range []int{1, 2, 3, 5, 8, 31} {
			rng := rand.New(rand.NewSource(7))
			got, want := newReplay(capacity), newHeapReplay(capacity)
			for i := 0; i < 2000; i++ {
				if i%37 == 36 {
					shift := rng.Intn(21) - 10
					got.translate(shift)
					want.translate(shift)
				} else {
					flat, w := shape.flat(rng, i), rng.Intn(3) == 0
					got.access(flat, w)
					want.access(flat, w)
				}
				if got.loads != want.loads || got.stores != want.stores || got.dirtyCount() != want.ndirty {
					t.Fatalf("%s cap %d step %d: loads/stores/dirty = %d/%d/%d, oracle %d/%d/%d",
						shape.name, capacity, i, got.loads, got.stores, got.dirtyCount(), want.loads, want.stores, want.ndirty)
				}
				offset := i % 5
				if g, w := got.signature(offset), want.signature(offset); !bytes.Equal(g, w) {
					t.Fatalf("%s cap %d step %d: signature %x, oracle %x", shape.name, capacity, i, g, w)
				}
			}
		}
	}
}

// TestReplayAllocFree pins the automaton's hot path at run time: on a warm
// automaton a scripted sequence of hits, evictions (new minima, new maxima
// and mid-run inserts), snapshots and translations allocates nothing.
func TestReplayAllocFree(t *testing.T) {
	r := newReplay(8)
	script := func() {
		for f := 0; f < 32; f++ {
			r.access(f, f%3 == 0) // ascending: tail appends, compaction
		}
		for f := 40; f > 20; f-- {
			r.access(f, false) // descending: the head slot
		}
		for _, f := range []int{25, 7, 33, 25, 12, 30} {
			r.access(f, true) // hits and mid-run inserts
		}
		_ = r.signature(5)
		_ = r.dirtyCount()
		r.translate(3)
		r.translate(-3)
	}
	script() // warm the signature buffer
	if allocs := testing.AllocsPerRun(100, script); allocs != 0 {
		t.Fatalf("warm replay automaton allocates %.1f/op, want 0", allocs)
	}
}
