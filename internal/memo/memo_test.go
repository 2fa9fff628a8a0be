package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestGetReportsClaimThenHit(t *testing.T) {
	var m Memo[string, int]
	calls := 0
	compute := func() (int, error) { calls++; return 7, nil }
	for i, want := range []Outcome{Claimed, Hit, Hit} {
		v, o, err := m.Get("k", compute)
		if v != 7 || o != want || err != nil {
			t.Fatalf("call %d: got (%d, %v, %v), want (7, %v, nil)", i, v, o, err, want)
		}
	}
	if _, o, _ := m.Get("other", compute); o != Claimed {
		t.Fatalf("a second key reported %v, want Claimed", o)
	}
	if calls != 2 || m.Len() != 2 {
		t.Fatalf("compute ran %d times over %d keys, want 2 and 2", calls, m.Len())
	}
}

func TestErrorsAreMemoized(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	if _, _, err := m.Get(1, func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("got %v, want boom", err)
	}
	if _, o, err := m.Get(1, func() (string, error) { return "late", nil }); err != boom || o != Hit {
		t.Fatalf("got (%v, %v), want the memoized boom as a Hit", o, err)
	}
}

// TestPanicBecomesMemoizedError: a panic settles the key with the named
// error for every later caller, and Do produces the same text.
func TestPanicBecomesMemoizedError(t *testing.T) {
	m := Memo[string, *int]{What: "widget"}
	kaboom := func() (*int, error) { panic("kaboom") }
	for i := 0; i < 2; i++ {
		v, _, err := m.Get("k", kaboom)
		if v != nil || err == nil || err.Error() != "widget panic: kaboom" {
			t.Fatalf("call %d: got (%v, %v), want (nil, widget panic: kaboom)", i, v, err)
		}
	}
	if v, err := Do("widget", kaboom); v != nil || err == nil || err.Error() != "widget panic: kaboom" {
		t.Fatalf("Do: got (%v, %v), want the memo's error text", v, err)
	}
	if v, err := Do("widget", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("Do passthrough: got (%d, %v)", v, err)
	}
}

// TestConcurrentCallersShareOneComputation: callers that arrive while the
// claim is in flight block until it settles, share its value, and are each
// observed on Wait; exactly one computation runs. Run under -race in CI.
func TestConcurrentCallersShareOneComputation(t *testing.T) {
	met := obs.New()
	m := Memo[string, int]{Wait: met.Stage("wait")}
	release := make(chan struct{})
	var calls atomic.Int64
	compute := func() (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}
	inFlight := make(chan struct{})
	go func() { //repro:norecover Get recovers compute panics itself
		_, _, _ = m.Get("k", func() (int, error) { close(inFlight); return compute() })
	}()
	<-inFlight

	const callers = 8
	outcomes := make([]Outcome, callers)
	var started, done sync.WaitGroup
	for i := range outcomes {
		started.Add(1)
		done.Add(1)
		go func() { //repro:norecover Get recovers compute panics itself
			defer done.Done()
			started.Done()
			v, o, err := m.Get("k", compute)
			if v != 42 || err != nil {
				t.Errorf("caller %d got (%d, %v), want the claim's (42, nil)", i, v, err)
			}
			outcomes[i] = o
		}()
	}
	started.Wait()
	// Give the callers time to reach the in-flight entry, so the Waited
	// path runs. Nothing below depends on it: a caller scheduled after the
	// claim settled reports Hit, which the checks accept.
	time.Sleep(20 * time.Millisecond)
	close(release)
	done.Wait()

	waited := 0
	for i, o := range outcomes {
		switch o {
		case Waited:
			waited++
		case Hit: // scheduled only after the claim settled
		default:
			t.Errorf("caller %d got %v, want Waited or Hit", i, o)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if n := met.Snapshot().Stages["wait"].Count; n != int64(waited) {
		t.Fatalf("wait stage observed %d waits, callers reported %d", n, waited)
	}
	if waited == 0 {
		t.Log("no caller reached the entry while the claim was in flight")
	}
}

// TestClaimIsTheCallThatComputes: on every key exactly one call reports
// Claimed, and it is the call whose compute ran, even when another caller
// reaches the key's Once before the caller that added the key. That
// window is a few instructions wide, so four callers race over 200,000
// fresh keys, 10,000 to a memo. Owners count a claim as their own miss
// (internal/dse's per-exploration counters), so a claim reported by the
// wrong call moves a lookup from one exploration's counts to another's.
func TestClaimIsTheCallThatComputes(t *testing.T) {
	const callers, keys = 4, 10_000
	for round := range 20 {
		var m Memo[int, int]
		var ran, claimed [keys][callers]bool
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() { //repro:norecover Get recovers compute panics itself
				defer wg.Done()
				for k := range keys {
					_, o, _ := m.Get(k, func() (int, error) { ran[k][c] = true; return k, nil })
					claimed[k][c] = o == Claimed
				}
			}()
		}
		wg.Wait()
		for k := range keys {
			n := 0
			for c := range callers {
				if claimed[k][c] {
					n++
				}
				if ran[k][c] != claimed[k][c] {
					t.Fatalf("round %d, key %d, caller %d: compute ran %v, Claimed %v", round, k, c, ran[k][c], claimed[k][c])
				}
			}
			if n != 1 {
				t.Fatalf("round %d, key %d: %d calls report Claimed, want 1", round, k, n)
			}
		}
	}
}
