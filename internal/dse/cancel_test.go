package dse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// cancelReporter cancels its context from inside Point after `after`
// rows, returning nil from every call — so any halt the engine performs is
// attributable to the context alone, not the reporter-error path — and
// counts the Points delivered once the context was done.
type cancelReporter struct {
	after  int
	ctx    context.Context
	cancel context.CancelFunc
	points atomic.Int64
	late   atomic.Int64
}

func newCancelReporter(after int) *cancelReporter {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelReporter{after: after, ctx: ctx, cancel: cancel}
}

func (c *cancelReporter) Begin(Space, int) error { return nil }
func (c *cancelReporter) Point(Result) error {
	if c.ctx.Err() != nil {
		c.late.Add(1)
	}
	if int(c.points.Add(1)) == c.after {
		c.cancel()
	}
	return nil
}
func (c *cancelReporter) End(StreamStats) error { return errors.New("End after cancellation") }

// TestExploreShardStreamCancelExitsPromptly pins the engine's shutdown
// contract on each halt a caller can cause — a cancelled context (the
// fleet executor's), a reporter error and a reporter panic, which dse
// serve recovers: the call ends without End, and no pool goroutine —
// worker or watcher — outlives it.
func TestExploreShardStreamCancelExitsPromptly(t *testing.T) {
	boom := errors.New("sink failed")
	errPanicked := errors.New("reporter panicked")
	// failAt returns a reporter whose fifth Point calls fail.
	failAt := func(fail func() error) StreamReporter {
		n := 0
		return funcReporter{
			point: func(Result) error {
				if n++; n == 5 {
					return fail()
				}
				return nil
			},
			end: func(StreamStats) error { return errors.New("End after a halt") },
		}
	}
	explore := func(ctx context.Context, sr StreamReporter) (StreamStats, error) {
		return Engine{Workers: 4}.ExploreShardStream(ctx, DefaultSpace(), 0, 1, sr)
	}
	for _, tc := range []struct {
		name string
		run  func() (StreamStats, error)
		want error
	}{
		{"cancel", func() (StreamStats, error) {
			rep := newCancelReporter(5)
			defer rep.cancel()
			return explore(rep.ctx, rep)
		}, context.Canceled},
		{"reporter error", func() (StreamStats, error) {
			return explore(context.Background(), failAt(func() error { return boom }))
		}, boom},
		{"reporter panic", func() (st StreamStats, err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("%w: %v", errPanicked, v)
				}
			}()
			return explore(context.Background(), failAt(func() error { panic("sink panicked") }))
		}, errPanicked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			st, err := tc.run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if st.Points >= 192 {
				t.Fatalf("a halt after 5 rows still emitted all %d points", st.Points)
			}
			// The pool must fully unwind: poll for the goroutine count to
			// return to (near) baseline. Allowance of +3 covers unrelated
			// runtime noise.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if g := runtime.NumGoroutine(); g <= before+3 {
					break
				} else if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutines leaked after the halt: %d before, %d after\n%s",
						before, g, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestNoPointAfterCancel: the engine owns cancellation, so a reporter
// needs no context check of its own — once ctx is done, results already
// computed are dropped, never delivered.
func TestNoPointAfterCancel(t *testing.T) {
	for run := 0; run < 20; run++ {
		rep := newCancelReporter(5)
		_, err := Engine{Workers: 4}.ExploreShardStream(rep.ctx, DefaultSpace(), 0, 1, rep)
		rep.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", run, err)
		}
		if n := rep.late.Load(); n != 0 {
			t.Fatalf("run %d: %d Point calls after cancellation, want 0", run, n)
		}
	}
}

// TestExploreShardStreamPreCancelled: a context cancelled before the call
// evaluates nothing it can avoid and reports the cancellation.
func TestExploreShardStreamPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var col collector
	_, err := Engine{Workers: 2}.ExploreShardStream(ctx, smallSpace(), 0, 1, &col)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExploreSubsetStream pins the residual-set entry point: an arbitrary
// strictly-increasing subset of global indices yields exactly those rows,
// identical to the same rows of a full exploration.
func TestExploreSubsetStream(t *testing.T) {
	sp := smallSpace()
	full := mustExplore(t, Engine{Workers: 4}, sp)
	subset := []int{1, 3, 4, 9, len(full.Results) - 1}
	var col collector
	st, err := Engine{Workers: 4}.ExploreSubsetStream(context.Background(), sp, subset, &col)
	if err != nil {
		t.Fatalf("ExploreSubsetStream: %v", err)
	}
	if st.Points != len(subset) || len(col.rows) != len(subset) {
		t.Fatalf("got %d rows, want %d", len(col.rows), len(subset))
	}
	for i, g := range subset {
		got, want := col.rows[i], full.Results[g]
		if got.Point.Index != g {
			t.Fatalf("row %d has index %d, want %d", i, got.Point.Index, g)
		}
		if (got.Design == nil) != (want.Design == nil) {
			t.Fatalf("row %d design presence differs from full run", g)
		}
		if got.Design != nil && (got.Design.TimeUs != want.Design.TimeUs ||
			got.Design.Slices != want.Design.Slices ||
			got.Design.Registers != want.Design.Registers ||
			got.Design.Cycles != want.Design.Cycles) {
			t.Fatalf("row %d design differs from full run: %+v vs %+v", g, got.Design, want.Design)
		}
	}
}

// TestExploreSubsetStreamValidation rejects malformed subsets.
func TestExploreSubsetStreamValidation(t *testing.T) {
	sp := smallSpace()
	for _, tc := range []struct {
		name   string
		subset []int
		want   string
	}{
		{"out of range", []int{0, 10_000}, "out of range"},
		{"negative", []int{-1}, "out of range"},
		{"unsorted", []int{3, 1}, "strictly increasing"},
		{"duplicate", []int{2, 2}, "strictly increasing"},
	} {
		var col collector
		_, err := Engine{}.ExploreSubsetStream(context.Background(), sp, tc.subset, &col)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
