package fleet

import (
	"testing"
	"time"
)

// TestSplit: partitions cover exactly the input, strictly increasing, at
// most n parts and at most one per unit present; a unit's points stay in
// one part, and the units present are dealt round-robin, so over a whole
// space part i owns exactly what shard i of n owns.
func TestSplit(t *testing.T) {
	pts := []int{1, 3, 4, 7, 9, 12, 15}
	for _, unit := range []int{1, 2, 3, 8} {
		units := map[int]bool{}
		for _, g := range pts {
			units[g/unit] = true
		}
		for n := 1; n <= 9; n++ {
			parts := split(pts, n, unit)
			if len(parts) > n || len(parts) > len(units) {
				t.Fatalf("unit %d, n=%d: %d parts for %d units", unit, n, len(parts), len(units))
			}
			seen := map[int]bool{}
			partOf := map[int]int{} // unit → part
			for pi, p := range parts {
				for i, g := range p {
					if seen[g] {
						t.Fatalf("unit %d, n=%d: %d covered twice", unit, n, g)
					}
					seen[g] = true
					if i > 0 && p[i-1] >= g {
						t.Fatalf("unit %d, n=%d: part not increasing: %v", unit, n, p)
					}
					if q, ok := partOf[g/unit]; ok && q != pi {
						t.Fatalf("unit %d, n=%d: unit %d split across parts %d and %d", unit, n, g/unit, q, pi)
					}
					partOf[g/unit] = pi
				}
			}
			if len(seen) != len(pts) {
				t.Fatalf("unit %d, n=%d: covered %d of %d points", unit, n, len(seen), len(pts))
			}
			k := 0 // rank of each unit present, in increasing order
			for u := 0; u <= pts[len(pts)-1]/unit; u++ {
				if !units[u] {
					continue
				}
				if want := k % len(parts); partOf[u] != want {
					t.Fatalf("unit %d, n=%d: unit %d in part %d, want %d (round-robin)", unit, n, u, partOf[u], want)
				}
				k++
			}
		}
	}
	// Over a whole 12-point space of 2-point units, part i is shard i.
	all := make([]int, 12)
	for g := range all {
		all[g] = g
	}
	for n := 1; n <= 7; n++ {
		for i, p := range split(all, n, 2) {
			for _, g := range p {
				if g/2%n != i {
					t.Fatalf("n=%d: point %d in part %d, shard %d owns it", n, g, i, g/2%n)
				}
			}
		}
	}
}

// TestShedWait: the Retry-After hint is honored and capped, garbage gets
// the conservative default.
func TestShedWait(t *testing.T) {
	if got := shedWait("1", 2*time.Second); got != time.Second {
		t.Errorf("hint 1s → %v", got)
	}
	if got := shedWait("3600", 2*time.Second); got != 2*time.Second {
		t.Errorf("huge hint → %v, want cap", got)
	}
	if got := shedWait("soon", 2*time.Second); got != 250*time.Millisecond {
		t.Errorf("garbage hint → %v, want default", got)
	}
	if got := shedWait("", 0); got != 250*time.Millisecond {
		t.Errorf("no hint → %v, want default", got)
	}
}
