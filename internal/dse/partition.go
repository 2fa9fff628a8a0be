package dse

// Every partition of a space — the engine's shards (ExploreShard,
// ExploreShardStream, and through them `dse -shard`, serve's ?shard= and
// shard.Run), the shard reader's ownership checks and the fleet driver's
// task split — deals whole units: shard i of n owns global point g
// exactly when ⌊g/w⌋ mod n = i, where w is the unit size, the
// |Devices|·|Scheds| consecutive points of one (kernel, allocator,
// budget) block. The engine schedules a unit once for all of its points
// (exploreOwned), so a part that owns whole units schedules each of them
// in one place; a point stride would split every unit of a multi-device
// space across parts and schedule it once per part.

// UnitSize returns the spec's unit size: how many consecutive global
// points one (kernel, allocator, budget) unit spans, |Devices|·|Scheds|.
// It is read from the spec, never configured, so every reader of a shard
// header derives the same partition as its writer. 0 when an axis is
// empty.
func (s SpaceSpec) UnitSize() int { return len(s.Devices) * len(s.Scheds) }

// ShardPoint returns the k-th (from 0) global point, in increasing
// order, that shard index of count owns among total points in units of
// unit points, or -1 past the last. Any arguments are safe: a header's
// claims (total near MaxInt, more shards than units, a unit larger than
// the space) never overflow the arithmetic, and nothing is allocated, so
// a reader follows a file's rows without trusting its header.
func ShardPoint(k, index, count, total, unit int) int {
	units := unitsOf(total, unit)
	if k < 0 || index < 0 || index >= count || index >= units || k/unit > (units-1-index)/count {
		return -1
	}
	lo := (index + k/unit*count) * unit // the unit's first point: at most (units-1)·unit < total
	if k%unit >= total-lo {
		return -1 // past the end of a partial last unit
	}
	return lo + k%unit
}

// ShardSize returns how many points shard index of count owns among total
// points in units of unit points: the length of ShardPoint's sequence.
func ShardSize(index, count, total, unit int) int {
	units := unitsOf(total, unit)
	if index < 0 || index >= count || index >= units {
		return 0
	}
	m := (units - 1 - index) / count // owned units after the first
	last := (index + m*count) * unit
	return m*unit + min(unit, total-last)
}

// unitsOf returns how many units, the last possibly partial, hold total
// points; 0 for a non-positive total or unit.
func unitsOf(total, unit int) int {
	if total <= 0 || unit <= 0 {
		return 0
	}
	units := total / unit
	if total%unit != 0 {
		units++
	}
	return units
}

// shardPoints lists the points shard index of count owns in a normalized
// space of total points and units of unit points (unit divides total):
// ShardPoint's sequence in one pass. On count 1 it is every index.
func shardPoints(index, count, total, unit int) []int {
	owned := make([]int, 0, ShardSize(index, count, total, unit))
	units := total / unit
	// Past units shards, a shard owns at most its first unit, so the step
	// is capped there and u never overflows.
	for u := index; u < units; u += min(count, units) {
		for g := u * unit; g < (u+1)*unit; g++ {
			owned = append(owned, g)
		}
	}
	return owned
}
