package simcache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestFragmentMemoizes(t *testing.T) {
	c := New()
	calls := 0
	compute := func() (Fragment, error) {
		calls++
		return Fragment{Loads: 3, Stores: 1}, nil
	}
	for i := 0; i < 3; i++ {
		f, err := c.Fragment("k", compute)
		if err != nil {
			t.Fatal(err)
		}
		if f != (Fragment{Loads: 3, Stores: 1}) {
			t.Fatalf("got %+v", f)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Snapshot()
	if s.EntryMisses != 1 || s.EntryHits != 2 {
		t.Fatalf("stats %+v, want 1 miss / 2 hits", s)
	}
}

func TestClassLenMemoizesAndKeysAreIndependent(t *testing.T) {
	c := New()
	cl, err := c.ClassLen("a", func() (ClassLen, error) { return ClassLen{Iter: 7, Mem: 2}, nil })
	if err != nil || cl != (ClassLen{Iter: 7, Mem: 2}) {
		t.Fatalf("got %+v, %v", cl, err)
	}
	// Same key string in the fragment namespace must not collide.
	f, err := c.Fragment("a", func() (Fragment, error) { return Fragment{Loads: 9}, nil })
	if err != nil || f != (Fragment{Loads: 9}) {
		t.Fatalf("got %+v, %v", f, err)
	}
	cl2, _ := c.ClassLen("a", func() (ClassLen, error) { return ClassLen{}, errors.New("must not run") })
	if cl2 != cl {
		t.Fatalf("got %+v, want memoized %+v", cl2, cl)
	}
}

func TestErrorsAreMemoizedButNotPersisted(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.Fragment("k", func() (Fragment, error) { return Fragment{}, boom }); err != boom {
		t.Fatalf("got %v, want boom", err)
	}
	if _, err := c.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 1}, nil }); err != boom {
		t.Fatalf("error not memoized: %v", err)
	}
	// A fresh cache over the same dir must not see a persisted value.
	c2, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c2.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 5}, nil })
	if err != nil || f.Loads != 5 {
		t.Fatalf("got %+v, %v — errored value leaked to disk?", f, err)
	}
}

// TestDirBackendSharesAcrossCaches: fragments round-trip through the
// backing directory, so a second cache over it recovers a value without
// computing. Class lengths do not (TestClassLenNeverTouchesTheDirectory).
func TestDirBackendSharesAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := Fragment{Loads: 11, Stores: 4}
	if _, err := c1.Fragment("shared", func() (Fragment, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	// A second cache (standing in for another process) must recover the
	// value from disk without computing.
	c2, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c2.Fragment("shared", func() (Fragment, error) {
		return Fragment{}, errors.New("must not recompute")
	})
	if err != nil {
		t.Fatal(err)
	}
	if f != want {
		t.Fatalf("got %+v, want %+v", f, want)
	}
	s := c2.Snapshot()
	if s.EntryDiskHits != 1 || s.EntryMisses != 0 {
		t.Fatalf("stats %+v, want 1 disk hit / 0 misses", s)
	}
}

// TestClassLenNeverTouchesTheDirectory: class lengths live in memory only
// (DESIGN.md §22). On a directory-backed cache ClassLen writes no file,
// and a well-formed class file that an older build left under a key's
// name (c + the key's SHA-256), holding a wrong value, is neither read
// nor touched.
func TestClassLenNeverTouchesTheDirectory(t *testing.T) {
	dir := t.TempDir()
	const stale = "1 99 98\n"
	planted := filepath.Join(dir, fmt.Sprintf("c%x", sha256.Sum256([]byte("planted"))))
	if err := os.WriteFile(planted, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := ClassLen{Iter: 3, Mem: 1}
	for _, key := range []string{"fresh", "planted"} {
		got, err := c.ClassLen(key, func() (ClassLen, error) { return want, nil })
		if err != nil || got != want {
			t.Errorf("key %s: got %+v, %v, want the computed %+v", key, got, err, want)
		}
	}
	if s := c.Snapshot(); s.ClassMisses != 2 || s.ClassDiskHits != 0 {
		t.Errorf("stats %+v, want 2 class misses and no disk hit", s)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(planted) {
		t.Errorf("directory holds %v, want only the planted file", ents)
	}
	if data, err := os.ReadFile(planted); err != nil || string(data) != stale {
		t.Errorf("the planted file was touched: %q, %v", data, err)
	}
}

func TestCorruptBackingFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 2}, nil }); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one backing file, got %d (%v)", len(ents), err)
	}
	if err := os.WriteFile(filepath.Join(dir, ents[0].Name()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c2.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 2}, nil })
	if err != nil || f.Loads != 2 {
		t.Fatalf("corrupt file not treated as miss: %+v, %v", f, err)
	}
	if s := c2.Snapshot(); s.EntryMisses != 1 {
		t.Fatalf("stats %+v, want the corrupt read counted as a miss", s)
	}
}

// TestSingleFlightConcurrent drives one key from many goroutines: exactly
// one computation, everyone sees the same value. Run under -race in CI.
func TestSingleFlightConcurrent(t *testing.T) {
	c := New()
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("k%d", j%7)
				f, err := c.Fragment(key, func() (Fragment, error) {
					mu.Lock()
					calls++
					mu.Unlock()
					return Fragment{Loads: 1}, nil
				})
				if err != nil || f.Loads != 1 {
					t.Errorf("got %+v, %v", f, err)
					return
				}
				if _, err := c.ClassLen(key, func() (ClassLen, error) { return ClassLen{Iter: 2}, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if calls != 7 {
		t.Fatalf("compute ran %d times, want once per key (7)", calls)
	}
	s := c.Snapshot()
	if s.EntryMisses != 7 {
		t.Fatalf("stats %+v, want 7 deterministic misses", s)
	}
}

func TestComputePanicBecomesError(t *testing.T) {
	c := New()
	_, err := c.Fragment("k", func() (Fragment, error) { panic("kaboom") })
	if err == nil {
		t.Fatal("want error from panicking compute")
	}
	// Later claimants share the recorded error instead of a zero value.
	_, err2 := c.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 1}, nil })
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("panic not memoized as error: %v vs %v", err2, err)
	}
}

// TestAnalysisHitCountsMemoLayer: the analysis counters are the memo
// layer's reports, one per call, on the snapshot and on the obs stages.
func TestAnalysisHitCountsMemoLayer(t *testing.T) {
	c := New()
	m := obs.New()
	c.SetObs(m)
	c.AnalysisHit()
	c.AnalysisHit()
	c.AnalysisMiss()
	if s := c.Snapshot(); s.AnalysisHits != 2 || s.AnalysisMisses != 1 {
		t.Fatalf("stats %+v, want 2 analysis hits and 1 miss", s)
	}
	st := m.Snapshot().Stages
	if hit, miss := st["cache/analysis/hit"].Count, st["cache/analysis/miss"].Count; hit != 2 || miss != 1 {
		t.Fatalf("obs hit %d miss %d, want 2 and 1", hit, miss)
	}
}

// TestScheduleCountsRegisterOnFirstUse: the schedule counters are the
// memo's reports, one per call, on the snapshot and on obs stages that
// exist only once a schedule was looked up; String names the stage only
// then, so a CLI stats line is unchanged.
func TestScheduleCountsRegisterOnFirstUse(t *testing.T) {
	c := New()
	m := obs.New()
	c.SetObs(m)
	if _, ok := m.Snapshot().Stages["cache/schedule/hit"]; ok {
		t.Fatal("schedule stage registered before any lookup")
	}
	if s := c.Snapshot().String(); strings.Contains(s, "schedule") {
		t.Fatalf("String names the schedule stage before any lookup: %s", s)
	}
	c.ScheduleHit()
	c.ScheduleHit()
	c.ScheduleMiss()
	s := c.Snapshot()
	if s.ScheduleHits != 2 || s.ScheduleMisses != 1 {
		t.Fatalf("stats %+v, want 2 schedule hits and 1 miss", s)
	}
	st := m.Snapshot().Stages
	if hit, miss := st["cache/schedule/hit"].Count, st["cache/schedule/miss"].Count; hit != 2 || miss != 1 {
		t.Fatalf("obs hit %d miss %d, want 2 and 1", hit, miss)
	}
	if str := s.String(); !strings.HasSuffix(str, ", schedule 2/1") {
		t.Fatalf("String = %q, want the schedule stage last", str)
	}
	if d := s.Add(s).Sub(s); d != s {
		t.Fatalf("Add then Sub = %+v, want %+v", d, s)
	}
	// A cache without obs counts all the same.
	New().ScheduleHit()
}

func TestSnapshotAddAndString(t *testing.T) {
	a := Snapshot{EntryHits: 1, EntryMisses: 2, ClassHits: 3, ClassMisses: 4, PlanHits: 5, PlanMisses: 6}
	b := Snapshot{EntryHits: 10, EntryDiskHits: 1, ClassDiskHits: 2, PlanHits: 1}
	sum := a.Add(b)
	if sum.EntryHits != 11 || sum.EntryDiskHits != 1 || sum.ClassDiskHits != 2 || sum.PlanHits != 6 {
		t.Fatalf("bad sum %+v", sum)
	}
	if (Snapshot{}).Zero() != true || a.Zero() {
		t.Fatal("Zero misreports")
	}
	if s := sum.String(); s == "" {
		t.Fatal("empty String")
	}
}
