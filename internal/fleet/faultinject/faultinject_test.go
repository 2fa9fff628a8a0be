package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dse"
)

// TestScheduleDeterminism: the same seed replays the same decision
// sequence; nil schedules inject nothing.
func TestScheduleDeterminism(t *testing.T) {
	a, b := NewSchedule(7), NewSchedule(7)
	for i := 0; i < 200; i++ {
		if a.Decide(0.5) != b.Decide(0.5) {
			t.Fatalf("decision %d diverged between equal seeds", i)
		}
		if a.Intn(10) != b.Intn(10) {
			t.Fatalf("Intn %d diverged between equal seeds", i)
		}
	}
	var nilSched *Schedule
	if nilSched.Decide(1.0) {
		t.Error("nil schedule decided to inject")
	}
	if nilSched.Intn(10) != 0 {
		t.Error("nil schedule Intn != 0")
	}
	if a.Decide(0) {
		t.Error("p=0 decided to inject")
	}
}

// TestTransportShed: a shed decision yields a synthetic 503 carrying the
// configured Retry-After without touching the upstream.
func TestTransportShed(t *testing.T) {
	upstreamHit := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upstreamHit = true
	}))
	defer ts.Close()

	tr := &Transport{S: NewSchedule(1), ShedRate: 1, RetryAfterSecs: 3}
	resp, err := tr.RoundTrip(mustReq(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After %q, want 3", got)
	}
	if upstreamHit {
		t.Error("shed decision still contacted the upstream")
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Errorf("synthetic 503 body unreadable: %v", err)
	}
}

// TestTransportError: an error decision surfaces as a transport error.
func TestTransportError(t *testing.T) {
	tr := &Transport{S: NewSchedule(1), ErrorRate: 1}
	if _, err := tr.RoundTrip(mustReq(t, "http://127.0.0.1:1")); err == nil {
		t.Fatal("no synthetic error injected")
	}
}

// TestTransportCut: a cut decision truncates the body after CutAfter
// bytes and the reader sees an unexpected EOF.
func TestTransportCut(t *testing.T) {
	body := strings.Repeat("x", 1000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer ts.Close()

	tr := &Transport{S: NewSchedule(1), CutRate: 1, CutAfter: 100}
	resp, err := tr.RoundTrip(mustReq(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read error %v, want unexpected EOF", err)
	}
	if len(got) != 100 {
		t.Errorf("read %d bytes before the cut, want 100", len(got))
	}
}

// TestTransportLatency: a latency decision delays but completes, and the
// request context can abort the sleep.
func TestTransportLatency(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()

	tr := &Transport{S: NewSchedule(1), LatencyRate: 1, Latency: 20 * time.Millisecond}
	start := time.Now()
	resp, err := tr.RoundTrip(mustReq(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if time.Since(start) < 20*time.Millisecond {
		t.Error("latency not injected")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := &Transport{S: NewSchedule(1), LatencyRate: 1, Latency: time.Hour}
	if _, err := slow.RoundTrip(req); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled latency sleep returned %v", err)
	}
}

// countWriter records what reaches the underlying stream.
type countWriter struct{ b strings.Builder }

func (c *countWriter) Write(p []byte) (int, error) { return c.b.WriteString(string(p)) }

// fakeExec writes n newline-terminated lines.
type fakeExec struct{ n int }

func (f *fakeExec) Name() string { return "fake" }
func (f *fakeExec) Run(_ context.Context, _ dse.SpaceSpec, _ []int, w io.Writer) error {
	for i := 0; i < f.n; i++ {
		if _, err := io.WriteString(w, "line\n"); err != nil {
			return err
		}
	}
	return nil
}

// TestKillAfterRows: the wrapper cuts exactly at the row boundary, counts
// its kills, and stops killing after Times attempts.
func TestKillAfterRows(t *testing.T) {
	k := &KillAfterRows{Exec: &fakeExec{n: 10}, Rows: 3, Times: 2}
	for attempt := 0; attempt < 2; attempt++ {
		var out countWriter
		err := k.Run(context.Background(), dse.SpaceSpec{}, nil, &out)
		if err == nil {
			t.Fatalf("attempt %d: killed run returned nil error", attempt)
		}
		if got := strings.Count(out.b.String(), "\n"); got != 3 {
			t.Fatalf("attempt %d: %d lines reached output, want 3", attempt, got)
		}
		if !strings.HasSuffix(out.b.String(), "\n") {
			t.Fatalf("attempt %d: cut not at a line boundary", attempt)
		}
	}
	if k.Killed() != 2 {
		t.Fatalf("Killed() = %d, want 2", k.Killed())
	}
	var out countWriter
	if err := k.Run(context.Background(), dse.SpaceSpec{}, nil, &out); err != nil {
		t.Fatalf("attempt after Times exhausted still killed: %v", err)
	}
	if got := strings.Count(out.b.String(), "\n"); got != 10 {
		t.Fatalf("healthy attempt wrote %d lines, want 10", got)
	}
	if k.Killed() != 2 {
		t.Fatalf("healthy attempt counted as a kill")
	}
}

// TestKillAfterRowsMidBuffer: a single large write spanning the boundary
// is cut inside the buffer, not at the write granularity.
func TestKillAfterRowsMidBuffer(t *testing.T) {
	c := &lineCutWriter{w: &strings.Builder{}, lines: 2}
	n, err := c.Write([]byte("a\nb\nc\nd\n"))
	if err == nil {
		t.Fatal("boundary write returned nil error")
	}
	if n != 4 {
		t.Fatalf("wrote %d bytes, want 4 (through second newline)", n)
	}
	if _, err := c.Write([]byte("more\n")); err == nil {
		t.Fatal("write after cut succeeded")
	}
}

// TestProxyForwardsAndSheds: the proxy passes requests (with query and
// body) through to the target, and surfaces shed decisions to the client.
func TestProxyForwardsAndSheds(t *testing.T) {
	var gotQuery, gotBody string
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotQuery = r.URL.RawQuery
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		io.WriteString(w, "pong")
	}))
	defer target.Close()

	clean := httptest.NewServer(&Proxy{Target: target.URL, T: &Transport{}})
	defer clean.Close()
	resp, err := http.Post(clean.URL+"/v1/explore?shard=0/2", "application/json", strings.NewReader("ping"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" || gotQuery != "shard=0/2" || gotBody != "ping" {
		t.Fatalf("proxy mangled the request: body=%q query=%q upstream-body=%q", body, gotQuery, gotBody)
	}

	shedding := httptest.NewServer(&Proxy{Target: target.URL, T: &Transport{S: NewSchedule(1), ShedRate: 1, RetryAfterSecs: 2}})
	defer shedding.Close()
	resp, err = http.Get(shedding.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("shed not surfaced: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestProxyClientGoneEndsDelay: once the client of a delayed request
// gives up, the proxy's handler returns at once, so the server's Close
// (a graceful stop) does not wait out the injected latency.
func TestProxyClientGoneEndsDelay(t *testing.T) {
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer target.Close()
	proxy := httptest.NewServer(&Proxy{Target: target.URL, T: &Transport{S: NewSchedule(1), LatencyRate: 1, Latency: 3 * time.Second}})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, proxy.URL+"/v1/explore", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Client().Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed request returned %v, want the client's deadline", err)
	}
	start := time.Now()
	proxy.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v after the client cancelled", d)
	}
}

func mustReq(t *testing.T, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}
