package simcache

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// newBlobServer starts a blob server over a fresh directory-backed cache
// and returns both.
func newBlobServer(t *testing.T) (*Cache, *httptest.Server) {
	t.Helper()
	c, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewBlobHandler(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return c, srv
}

func testRemote(base string) *Remote {
	r := NewRemote(base)
	r.Backoff = time.Millisecond
	return r
}

func TestBlobHandlerRoundTrip(t *testing.T) {
	_, srv := newBlobServer(t)
	r := testRemote(srv.URL)
	hash := hashKey("some canonical key")

	if _, ok, err := r.get("f", hash); ok || err != nil {
		t.Fatalf("get before put: ok=%v err=%v, want definitive miss", ok, err)
	}
	if err := r.put("f", hash, encodeValue(12, 34)); err != nil {
		t.Fatal(err)
	}
	data, ok, err := r.get("f", hash)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if a, b, ok := decodeValue(data); !ok || a != 12 || b != 34 {
		t.Fatalf("round-tripped %q -> (%d,%d)", data, a, b)
	}
	// The same hash under the other kind is a distinct blob.
	if _, ok, _ := r.get("c", hash); ok {
		t.Fatal("class namespace leaked into fragment namespace")
	}
}

func TestBlobHandlerRejectsMalformedRequests(t *testing.T) {
	_, srv := newBlobServer(t)
	hash := hashKey("k")
	status := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(http.MethodPut, "/v1/blob/f/"+hash, "not a value"); got != http.StatusBadRequest {
		t.Fatalf("malformed value: %d, want 400", got)
	}
	if got := status(http.MethodPut, "/v1/blob/f/"+hash, "2 1 1\n"); got != http.StatusBadRequest {
		t.Fatalf("wrong version flag: %d, want 400", got)
	}
	if got := status(http.MethodPut, "/v1/blob/f/"+hash, "1 -1 2\n"); got != http.StatusBadRequest {
		t.Fatalf("negative value: %d, want 400", got)
	}
	if got := status(http.MethodPut, "/v1/blob/x/"+hash, "1 1 2\n"); got != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d, want 400", got)
	}
	// The retired analysis kind is an unknown kind on both methods.
	if got := status(http.MethodPut, "/v1/blob/a/"+hash, "1 1 2\n"); got != http.StatusBadRequest {
		t.Fatalf("PUT of the retired analysis kind: %d, want 400", got)
	}
	if got := status(http.MethodGet, "/v1/blob/a/"+hash, ""); got != http.StatusBadRequest {
		t.Fatalf("GET of the retired analysis kind: %d, want 400", got)
	}
	if got := status(http.MethodGet, "/v1/blob/f/abc", ""); got != http.StatusBadRequest {
		t.Fatalf("short hash: %d, want 400", got)
	}
	if got := status(http.MethodGet, "/v1/blob/f/../"+hash, ""); got != http.StatusBadRequest {
		t.Fatalf("traversal path: %d, want 400", got)
	}
	if got := status(http.MethodGet, "/v1/blob/f/"+strings.ToUpper(hash), ""); got != http.StatusBadRequest {
		t.Fatalf("uppercase hash: %d, want 400", got)
	}
	if got := status(http.MethodDelete, "/v1/blob/f/"+hash, ""); got != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d, want 405", got)
	}
}

func TestBlobHandlerNeedsDirCache(t *testing.T) {
	if _, err := NewBlobHandler(New(), nil); err == nil {
		t.Fatal("memory-only cache accepted for blob serving")
	}
	if _, err := NewBlobHandler(nil, nil); err == nil {
		t.Fatal("nil cache accepted for blob serving")
	}
}

func TestRemoteGetRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		w.Write(encodeValue(5, 6))
	}))
	defer srv.Close()
	r := testRemote(srv.URL)

	data, ok, err := r.get("f", hashKey("k"))
	if err != nil || !ok {
		t.Fatalf("get after retries: ok=%v err=%v", ok, err)
	}
	if a, b, ok := decodeValue(data); !ok || a != 5 || b != 6 {
		t.Fatalf("got %q", data)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 500s then success)", n)
	}
}

func TestRemoteGetGivesUpAfterRetryBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	r := testRemote(srv.URL)

	if _, ok, err := r.get("f", hashKey("k")); ok || err == nil {
		t.Fatalf("get from dead server: ok=%v err=%v, want error", ok, err)
	}
	if n := calls.Load(); n != int64(r.Retries)+1 {
		t.Fatalf("server saw %d calls, want %d", calls.Load(), r.Retries+1)
	}
}

func TestCacheTreatsGarbageRemoteValueAsMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("garbage, not a v1 value"))
	}))
	defer srv.Close()

	c := New()
	c.SetRemote(testRemote(srv.URL))
	computed := false
	f, err := c.Fragment("k", func() (Fragment, error) {
		computed = true
		return Fragment{Loads: 1, Stores: 2}, nil
	})
	if err != nil || f != (Fragment{Loads: 1, Stores: 2}) {
		t.Fatalf("got %+v, %v", f, err)
	}
	if !computed {
		t.Fatal("garbage remote value short-circuited the computation")
	}
	if s := c.Snapshot(); s.EntryRemoteHits != 0 || s.EntryMisses != 1 {
		t.Fatalf("stats %+v, want a plain miss", s)
	}
}

func TestCacheChecksDiskBeforeRemote(t *testing.T) {
	var remoteCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remoteCalls.Add(1)
		http.Error(w, "should not be reached", http.StatusNotFound)
	}))
	defer srv.Close()

	dir := t.TempDir()
	seed, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 4, Stores: 4}, nil }); err != nil {
		t.Fatal(err)
	}

	c, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRemote(testRemote(srv.URL))
	f, err := c.Fragment("k", func() (Fragment, error) { return Fragment{}, nil })
	if err != nil || f != (Fragment{Loads: 4, Stores: 4}) {
		t.Fatalf("got %+v, %v", f, err)
	}
	if n := remoteCalls.Load(); n != 0 {
		t.Fatalf("remote consulted %d times despite a disk hit", n)
	}
	if s := c.Snapshot(); s.EntryDiskHits != 1 || s.EntryRemoteHits != 0 {
		t.Fatalf("stats %+v, want one disk hit", s)
	}
}

func TestRemoteHitIsWrittenBackToDisk(t *testing.T) {
	server, srv := newBlobServer(t)
	if _, err := server.ClassLen("k", func() (ClassLen, error) { return ClassLen{Iter: 9, Mem: 3}, nil }); err != nil {
		t.Fatal(err)
	}

	c, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetRemote(testRemote(srv.URL))
	cl, err := c.ClassLen("k", func() (ClassLen, error) { return ClassLen{}, nil })
	if err != nil || cl != (ClassLen{Iter: 9, Mem: 3}) {
		t.Fatalf("got %+v, %v", cl, err)
	}
	if s := c.Snapshot(); s.ClassRemoteHits != 1 {
		t.Fatalf("stats %+v, want one remote hit", s)
	}
	srv.Close() // the remote is gone; only the local disk copy can answer now

	c2, err := NewDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := c2.ClassLen("k", func() (ClassLen, error) { return ClassLen{}, nil })
	if err != nil || cl2 != cl {
		t.Fatalf("got %+v, %v, want disk write-back of the remote hit", cl2, err)
	}
	if s := c2.Snapshot(); s.ClassDiskHits != 1 {
		t.Fatalf("stats %+v, want one disk hit from the write-back", s)
	}
}

func TestComputedValueIsPublishedToRemote(t *testing.T) {
	server, srv := newBlobServer(t)

	c := New()
	c.SetRemote(testRemote(srv.URL))
	if _, err := c.Fragment("k", func() (Fragment, error) { return Fragment{Loads: 2, Stores: 7}, nil }); err != nil {
		t.Fatal(err)
	}

	// A second memory-only cache sharing only the remote sees the value.
	c2 := New()
	c2.SetRemote(testRemote(srv.URL))
	f, err := c2.Fragment("k", func() (Fragment, error) { return Fragment{}, nil })
	if err != nil || f != (Fragment{Loads: 2, Stores: 7}) {
		t.Fatalf("got %+v, %v, want the published value", f, err)
	}
	if s := c2.Snapshot(); s.EntryRemoteHits != 1 || s.EntryMisses != 0 {
		t.Fatalf("stats %+v, want one remote hit and no misses", s)
	}
	// And the serving cache can answer it straight from its own disk.
	sf, err := server.Fragment("k", func() (Fragment, error) { return Fragment{}, nil })
	if err != nil || sf != (Fragment{Loads: 2, Stores: 7}) {
		t.Fatalf("server-side lookup got %+v, %v", sf, err)
	}
}

// TestRemoteHonorsRetryAfter: a 503 carrying Retry-After makes the next
// retry wait the server's hint (not the doubling backoff) and counts on
// the shed-retry stage.
func TestRemoteHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		w.Write(encodeValue(7, 8))
	}))
	defer srv.Close()
	r := testRemote(srv.URL)
	r.Backoff = time.Hour // a blind-backoff sleep would hang the test
	r.MaxShedWait = 20 * time.Millisecond
	m := obs.New()
	r.SetObs(m)

	start := time.Now()
	data, ok, err := r.get("f", hashKey("k"))
	if err != nil || !ok {
		t.Fatalf("get after shed: ok=%v err=%v", ok, err)
	}
	if a, b, ok := decodeValue(data); !ok || a != 7 || b != 8 {
		t.Fatalf("got %q", data)
	}
	if elapsed := time.Since(start); elapsed >= time.Hour/2 {
		t.Fatalf("retry took %v: hint ignored in favor of blind backoff", elapsed)
	}
	if n := m.Snapshot().Stages["cache/remote/shed-retry"].Count; n != 1 {
		t.Fatalf("shed-retry count = %d, want 1", n)
	}
}

// TestRemotePutHonorsRetryAfter: the publish path honors the hint too.
func TestRemotePutHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	r := testRemote(srv.URL)
	r.Backoff = time.Hour
	r.MaxShedWait = 20 * time.Millisecond
	m := obs.New()
	r.SetObs(m)

	if err := r.put("f", hashKey("k"), encodeValue(1, 2)); err != nil {
		t.Fatalf("put after shed: %v", err)
	}
	if n := m.Snapshot().Stages["cache/remote/shed-retry"].Count; n != 1 {
		t.Fatalf("shed-retry count = %d, want 1", n)
	}
}

// TestRetryAfterParsing pins the hint extraction: delta-seconds only,
// clamped, garbage and non-503s ignored.
func TestRetryAfterParsing(t *testing.T) {
	r := NewRemote("http://x")
	r.MaxShedWait = 2 * time.Second
	resp := func(code int, hdr string) *http.Response {
		h := http.Header{}
		if hdr != "" {
			h.Set("Retry-After", hdr)
		}
		return &http.Response{StatusCode: code, Header: h}
	}
	for _, tc := range []struct {
		code int
		hdr  string
		want time.Duration
	}{
		{http.StatusServiceUnavailable, "1", time.Second},
		{http.StatusServiceUnavailable, " 2 ", 2 * time.Second},
		{http.StatusServiceUnavailable, "3600", 2 * time.Second}, // clamped
		{http.StatusServiceUnavailable, "0", 0},
		{http.StatusServiceUnavailable, "-5", 0},
		{http.StatusServiceUnavailable, "soon", 0},
		{http.StatusServiceUnavailable, "", 0},
		{http.StatusInternalServerError, "1", 0}, // only 503 is a shed
	} {
		if got := r.retryAfter(resp(tc.code, tc.hdr)); got != tc.want {
			t.Errorf("retryAfter(%d, %q) = %v, want %v", tc.code, tc.hdr, got, tc.want)
		}
	}
}

// TestSetObsSetRemoteEitherOrder: the remote tier's counters wire up
// whether the registry or the tier is attached first.
func TestSetObsSetRemoteEitherOrder(t *testing.T) {
	for _, obsFirst := range []bool{true, false} {
		c := New()
		m := obs.New()
		r := NewRemote("http://x")
		if obsFirst {
			c.SetObs(m)
			c.SetRemote(r)
		} else {
			c.SetRemote(r)
			c.SetObs(m)
		}
		if r.shedRetryT == nil {
			t.Errorf("obsFirst=%v: remote shed-retry stage not wired", obsFirst)
		}
	}
}
