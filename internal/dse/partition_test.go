package dse

import (
	"math"
	"testing"
)

// TestShardPointMatchesEnumeration: on small spaces, including totals
// that end in a partial unit, the k-th owned point is the k-th point of a
// brute-force enumeration of ⌊g/unit⌋ mod count = index, ShardSize is its
// length, and the engine's list (for totals the unit divides) is the
// whole enumeration.
func TestShardPointMatchesEnumeration(t *testing.T) {
	for total := 0; total <= 40; total++ {
		for unit := 1; unit <= 7; unit++ {
			for count := 1; count <= 9; count++ {
				covered := 0
				for index := 0; index < count; index++ {
					var want []int
					for g := 0; g < total; g++ {
						if g/unit%count == index {
							want = append(want, g)
						}
					}
					for k := 0; k <= len(want)+unit; k++ {
						w := -1
						if k < len(want) {
							w = want[k]
						}
						if got := ShardPoint(k, index, count, total, unit); got != w {
							t.Fatalf("ShardPoint(%d, %d, %d, %d, %d) = %d, want %d", k, index, count, total, unit, got, w)
						}
					}
					if got := ShardSize(index, count, total, unit); got != len(want) {
						t.Fatalf("ShardSize(%d, %d, %d, %d) = %d, want %d", index, count, total, unit, got, len(want))
					}
					if total%unit == 0 {
						got := shardPoints(index, count, total, unit)
						if len(got) != len(want) || cap(got) != len(want) {
							t.Fatalf("shardPoints(%d, %d, %d, %d): %d points (cap %d), want %d", index, count, total, unit, len(got), cap(got), len(want))
						}
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("shardPoints(%d, %d, %d, %d)[%d] = %d, want %d", index, count, total, unit, k, got[k], want[k])
							}
						}
					}
					covered += len(want)
				}
				if covered != total {
					t.Fatalf("%d shards of %d points in units of %d cover %d", count, total, unit, covered)
				}
			}
		}
	}
}

// TestShardPointAdversarial: whatever a header claims — a total near
// MaxInt, more shards than units, a unit larger than the space, a
// 2^40-point header — the k-th owned point is -1 or a point of the space
// owned by the shard, increasing in k, and computing it allocates
// nothing. Huge shard counts leave the engine's list bounded too.
func TestShardPointAdversarial(t *testing.T) {
	const maxInt = math.MaxInt
	type claim struct{ index, count, total, unit int }
	claims := []claim{
		{0, 1, maxInt, 1}, {0, 1, maxInt, 2}, {1, 2, maxInt, 3}, {2, 3, maxInt - 1, maxInt / 2},
		{0, 1, maxInt, maxInt}, {0, 1, maxInt - 1, maxInt}, {5, 7, maxInt, 1 << 40},
		{maxInt - 1, maxInt, maxInt, 1}, {maxInt - 1, maxInt, maxInt, 2}, {3, maxInt, 192, 2},
		{0, 1 << 20, 1 << 40, 1}, {1, 2, 1 << 40, 1 << 20}, // hugeHeader's claims
		{0, 2, 3, 8}, {1, 2, 3, 8}, {0, 1, 1, maxInt}, // a unit above the points
		{0, 1, 0, 2}, {0, 1, -5, 2}, {0, 1, 10, 0}, {0, 1, 10, -3}, {-1, 2, 10, 2}, {0, 0, 10, 2}, {2, 2, 10, 2},
	}
	ks := []int{-1, 0, 1, 2, 7, 1 << 20, 1 << 40, maxInt / 3, maxInt - 1, maxInt}
	for _, c := range claims {
		prev := -1
		for _, k := range ks {
			g := ShardPoint(k, c.index, c.count, c.total, c.unit)
			if g == -1 {
				continue
			}
			if k < 0 || g < 0 || g >= c.total || c.unit < 1 || g/c.unit%c.count != c.index || g <= prev {
				t.Fatalf("ShardPoint(%d, %+v) = %d: not an owned point above %d", k, c, g, prev)
			}
			prev = g
		}
		if n := ShardSize(c.index, c.count, c.total, c.unit); n < 0 || n > max(c.total, 0) {
			t.Fatalf("ShardSize(%+v) = %d", c, n)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, k := range ks {
				ShardPoint(k, c.index, c.count, c.total, c.unit)
			}
			ShardSize(c.index, c.count, c.total, c.unit)
		}); allocs != 0 {
			t.Fatalf("ShardPoint/ShardSize(%+v) allocate %v times", c, allocs)
		}
	}
	// The engine's list for any shard count of a 192-point space.
	for _, c := range []claim{{3, maxInt, 192, 2}, {maxInt - 1, maxInt, 192, 2}, {95, 96, 192, 2}, {96, 97, 192, 2}} {
		got := shardPoints(c.index, c.count, c.total, c.unit)
		if want := ShardSize(c.index, c.count, c.total, c.unit); len(got) != want || want > c.unit {
			t.Fatalf("shardPoints(%+v): %d points, want %d (at most one unit)", c, len(got), want)
		}
	}
}
