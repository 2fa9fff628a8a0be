package dse

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestStreamMatchesBuffered pins the wrapper contract: streaming each
// reporter through ExploreStream produces bytes identical to the buffered
// Report of the Explore result, for every format and worker count.
func TestStreamMatchesBuffered(t *testing.T) {
	sp := smallSpace()
	rs := mustExplore(t, Engine{Workers: 4}, sp)
	for _, tc := range []struct {
		name   string
		rep    Reporter
		stream func(w *bytes.Buffer) StreamReporter
	}{
		{"table", TableReporter{}, func(w *bytes.Buffer) StreamReporter { return TableReporter{}.Stream(w) }},
		{"csv", CSVReporter{Pareto: true}, func(w *bytes.Buffer) StreamReporter { return CSVReporter{Pareto: true}.Stream(w) }},
		{"csv-noPareto", CSVReporter{}, func(w *bytes.Buffer) StreamReporter { return CSVReporter{}.Stream(w) }},
		{"json", JSONReporter{Indent: true}, func(w *bytes.Buffer) StreamReporter { return JSONReporter{Indent: true}.Stream(w) }},
		{"json-compact", JSONReporter{}, func(w *bytes.Buffer) StreamReporter { return JSONReporter{}.Stream(w) }},
	} {
		var buffered bytes.Buffer
		if err := tc.rep.Report(&buffered, rs); err != nil {
			t.Fatalf("%s: buffered: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4} {
			var streamed bytes.Buffer
			st, err := Engine{Workers: workers}.ExploreStream(sp, tc.stream(&streamed))
			if err != nil {
				t.Fatalf("%s: stream: %v", tc.name, err)
			}
			if streamed.String() != buffered.String() {
				t.Errorf("%s: %d-worker streamed output differs from buffered", tc.name, workers)
			}
			if st.Points != len(rs.Results) {
				t.Errorf("%s: stream stats report %d points, want %d", tc.name, st.Points, len(rs.Results))
			}
			if st.UniqueSims != rs.UniqueSims {
				t.Errorf("%s: stream UniqueSims = %d, want %d", tc.name, st.UniqueSims, rs.UniqueSims)
			}
		}
	}
}

// TestStreamWindowBound is the memory contract: the engine keeps at most
// its window's slots of units dispatched but not emitted, however many
// points the space has. The stock space has 2-point units and
// max(4·workers, 8) slots; its 96 units fill the window whatever the
// completion order, so the peak the window stage records is exactly
// slots × 2 points.
func TestStreamWindowBound(t *testing.T) {
	sp := DefaultSpace()
	for _, tc := range []struct{ workers, window int }{{1, 16}, {4, 32}, {8, 64}} {
		var buf bytes.Buffer
		st, err := Engine{Workers: tc.workers, Obs: obs.New()}.ExploreStream(sp, (CSVReporter{}).Stream(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if st.Points != sp.Size() {
			t.Fatalf("%d workers: streamed %d points, want %d", tc.workers, st.Points, sp.Size())
		}
		if peak := st.Obs.Stages["window"].Max; peak != int64(tc.window) {
			t.Errorf("%d workers: window peak = %d, want %d", tc.workers, peak, tc.window)
		}
	}
}

// TestStreamOrdering: results arrive in strictly increasing point index
// order whatever the completion order.
func TestStreamOrdering(t *testing.T) {
	sp := smallSpace()
	var indices []int
	_, err := Engine{Workers: 8}.ExploreStream(sp, funcReporter{
		point: func(r Result) error {
			indices = append(indices, r.Point.Index)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(indices) != 16 {
		t.Fatalf("streamed %d points, want 16", len(indices))
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("position %d carried point index %d", i, idx)
		}
	}
}

// funcReporter adapts closures to StreamReporter for tests.
type funcReporter struct {
	begin func(sp Space, total int) error
	point func(r Result) error
	end   func(st StreamStats) error
}

func (f funcReporter) Begin(sp Space, total int) error {
	if f.begin != nil {
		return f.begin(sp, total)
	}
	return nil
}

func (f funcReporter) Point(r Result) error {
	if f.point != nil {
		return f.point(r)
	}
	return nil
}

func (f funcReporter) End(st StreamStats) error {
	if f.end != nil {
		return f.end(st)
	}
	return nil
}

// TestStreamReporterErrorAborts: a failing reporter must surface its
// error promptly instead of deadlocking the pool.
func TestStreamReporterErrorAborts(t *testing.T) {
	sp := smallSpace()
	boom := errors.New("sink failed")
	done := make(chan error, 1)
	go func() { //repro:norecover test harness: a panic here fails the test via the timeout below
		n := 0
		_, err := Engine{Workers: 2}.ExploreStream(sp, funcReporter{
			point: func(Result) error {
				n++
				if n == 3 {
					return boom
				}
				return nil
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("ExploreStream returned %v, want the sink error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ExploreStream hung on a failing reporter")
	}
}

// TestExploreShardPartition: shards of any count own whole units dealt
// round-robin (⌊g/w⌋ mod n = i, w = |Devices|·|Scheds| = 2 here), union
// back to exactly the full exploration, preserving global numbering, and
// invalid shard coordinates are rejected.
func TestExploreShardPartition(t *testing.T) {
	sp := smallSpace()
	w := len(sp.Devices) * len(sp.Scheds)
	full := mustExplore(t, Engine{Workers: 4}, sp)
	for _, n := range []int{1, 2, 3, 5, 8} {
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			rs, err := Engine{Workers: 2}.ExploreShard(sp, i, n)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			if want := ShardSize(i, n, sp.Size(), w); len(rs.Results) != want {
				t.Fatalf("shard %d/%d evaluated %d points, want %d", i, n, len(rs.Results), want)
			}
			for k, r := range rs.Results {
				g := r.Point.Index
				if g/w%n != i || g != ShardPoint(k, i, n, sp.Size(), w) {
					t.Fatalf("shard %d/%d evaluated point %d as its owned point %d, want %d", i, n, g, k, ShardPoint(k, i, n, sp.Size(), w))
				}
				if seen[g] {
					t.Fatalf("point %d evaluated by two shards", g)
				}
				seen[g] = true
				want := full.Results[g]
				if r.Point.ID() != want.Point.ID() {
					t.Fatalf("point %d resolved to %s, want %s", g, r.Point.ID(), want.Point.ID())
				}
				if r.Ok() != want.Ok() {
					t.Fatalf("point %d Ok mismatch", g)
				}
				if r.Ok() && (r.Design.Cycles != want.Design.Cycles || r.Design.TimeUs != want.Design.TimeUs) {
					t.Fatalf("point %d metrics differ from full run", g)
				}
			}
		}
		if len(seen) != len(full.Results) {
			t.Errorf("%d shards covered %d of %d points", n, len(seen), len(full.Results))
		}
	}
	for _, bad := range [][2]int{{1, 0}, {-1, 2}, {2, 2}, {3, 2}} {
		if _, err := (Engine{}).ExploreShard(sp, bad[0], bad[1]); err == nil {
			t.Errorf("ExploreShard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// TestShardStreamSkipsForeignKernels: a shard owning no points of a
// kernel must not pay for that kernel's front-end, and the stream still
// carries exactly the owned points.
func TestShardStreamSkipsForeignKernels(t *testing.T) {
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}},
	} // 2 points: figure1 is point 0, fir is point 1
	var got []string
	st, err := Engine{}.ExploreShardStream(context.Background(), sp, 1, 2, funcReporter{
		point: func(r Result) error {
			got = append(got, r.Point.Kernel.Name)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 1 || len(got) != 1 || got[0] != "fir" {
		t.Errorf("shard 1/2 streamed %v (%d points), want just fir", got, st.Points)
	}
}
