package shard

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/dse"
)

// maxFuzzMergePoints bounds the spaces the Merge half of FuzzSalvage
// rebuilds. Merge materializes the header spec's points, so a hostile
// but self-consistent spec (long budget and scheduler axes) could ask for
// millions; bounding a spec's size is a policy the reader does not make.
const maxFuzzMergePoints = 4096

// FuzzSalvage feeds arbitrary bytes to the one reader of shard and task
// files. Properties:
//
//   - no input panics, and none allocates by a header's claims (the
//     2^40-point seed would exhaust memory otherwise);
//   - Complete holds exactly when Stop is nil;
//   - the kept rows are the first k points the header owns, in order, and
//     a complete file keeps all of them;
//   - a single 0/1 file merges exactly when Salvage calls it complete and
//     not a task file (given a spec that resolves to the declared size and
//     fingerprint), and anything Salvage rejects, Merge rejects.
//
// The seeds are a real strided shard, a real task file, a whole-space
// shard, truncations of each, a reordered file, a foreign-fingerprint
// file and the 2^40-point header.
func FuzzSalvage(f *testing.F) {
	sp := smallSpace()
	strided := runShards(f, sp, 2)[1].Bytes()
	whole := runShards(f, sp, 1)[0].Bytes()
	var task bytes.Buffer
	pts := []int{0, 2, 5}
	if _, err := (dse.Engine{}).ExploreSubsetStream(context.Background(), sp, pts, NewTaskWriter(&task, pts)); err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{strided, whole, task.Bytes()} {
		f.Add(data)
		for n := 0; n < len(data); n += max(1, len(data)/6) {
			f.Add(data[:n])
		}
	}
	lines := strings.SplitAfter(string(whole), "\n")
	lines[1], lines[2] = lines[2], lines[1]
	f.Add([]byte(strings.Join(lines, "")))
	fp := dse.Spec(sp).Fingerprint()
	f.Add(bytes.Replace(whole, []byte(fp), []byte(strings.Repeat("0", len(fp))), 1))
	f.Add([]byte(hugeHeader(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Salvage(bytes.NewReader(data))
		if err != nil {
			if _, merr := Merge(bytes.NewReader(data)); merr == nil {
				t.Fatalf("merge accepted a file salvage rejects (%v)", err)
			}
			return
		}
		if s.Complete != (s.Stop == nil) {
			t.Fatalf("complete %v with stop %v", s.Complete, s.Stop)
		}
		checkOwnedPrefix(t, s)
		if s.Shard != (Plan{Index: 0, Count: 1}) {
			return
		}
		space, err := s.Spec.Space()
		if err != nil || space.Size() > maxFuzzMergePoints {
			return
		}
		want := s.Complete && s.Owned == nil && space.Size() == s.SpacePoints && s.Spec.Fingerprint() == s.Fingerprint
		rs, err := Merge(bytes.NewReader(data))
		if (err == nil) != want {
			t.Fatalf("merge err = %v; salvage complete=%v task=%v stop=%v", err, s.Complete, s.Owned != nil, s.Stop)
		}
		if err == nil && len(rs.Results) != s.Rows() {
			t.Fatalf("merged %d results from %d rows", len(rs.Results), s.Rows())
		}
	})
}

// checkOwnedPrefix checks the kept rows against the header's ownership
// rule, recomputed here without Salvaged.owned: row k must be the k-th
// owned point, and a complete file must hold every owned point.
func checkOwnedPrefix(t *testing.T, s *Salvaged) {
	t.Helper()
	p := s.Shard
	for k, ln := range s.rows {
		if ln.Index == nil || (ln.Design == nil) == (ln.Error == "") {
			t.Fatalf("kept malformed row %d", k)
		}
		g := *ln.Index
		if s.Owned != nil {
			if g != s.Owned[k] {
				t.Fatalf("row %d is point %d, want owned[%d] = %d", k, g, k, s.Owned[k])
			}
			continue
		}
		if g < p.Index || g >= s.SpacePoints || (g-p.Index)%p.Count != 0 || (g-p.Index)/p.Count != k {
			t.Fatalf("row %d is point %d, not the %d-th point of shard %s over %d points", k, g, k, p, s.SpacePoints)
		}
	}
	if !s.Complete {
		return
	}
	n := len(s.rows)
	switch {
	case s.Owned != nil && n != len(s.Owned):
		t.Fatalf("complete task file kept %d of %d owned rows", n, len(s.Owned))
	case s.Owned == nil && n == 0 && p.Index < s.SpacePoints:
		t.Fatalf("complete shard %s of %d points kept no rows", p, s.SpacePoints)
	case s.Owned == nil && n > 0 && s.SpacePoints-*s.rows[n-1].Index > p.Count:
		t.Fatalf("complete shard %s of %d points stops at point %d", p, s.SpacePoints, *s.rows[n-1].Index)
	}
}
