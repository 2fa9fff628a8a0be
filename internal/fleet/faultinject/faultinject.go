// Package faultinject is the chaos harness the fleet driver's fault
// tolerance is tested against: seeded, deterministic injection of the
// failures internal/fleet claims to survive — killed executors, hung
// streams, shedding or erroring HTTP services, mid-stream connection
// cuts. Torn checkpoint files need no injector: the fleet tests and the
// CI chaos smoke cut them short directly.
//
// Everything is driven by a Schedule, a seeded PRNG behind a mutex: the
// same seed replays the same fault decisions in the same decision order,
// so a chaos test failure reproduces with its seed. (Under concurrency
// the decision order follows goroutine interleaving; tests that need
// strict replay keep the faulty path single-threaded or assert
// properties, not exact schedules.)
//
// The injectors compose with the real code rather than mocking it: a
// Transport wraps any http.RoundTripper (an HTTPExecutor's client),
// KillAfterRows wraps any fleet.Executor, and Proxy stands between real
// processes in the CI chaos smoke.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/dse"
	"repro/internal/fleet"
)

// Schedule is a seeded source of fault decisions. Safe for concurrent
// use; decisions are consumed in call order.
type Schedule struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSchedule returns a Schedule replaying the decision sequence of seed.
func NewSchedule(seed int64) *Schedule {
	return &Schedule{rng: rand.New(rand.NewSource(seed))}
}

// Decide consumes one decision: true with probability p.
func (s *Schedule) Decide(p float64) bool {
	if s == nil || p <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64() < p
}

// Intn consumes one decision: a uniform int in [0, n).
func (s *Schedule) Intn(n int) int {
	if s == nil || n <= 1 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// Transport injects faults in front of any http.RoundTripper: synthetic
// 503 sheds (with a Retry-After hint), network errors, added latency,
// and mid-body cuts that truncate the response stream partway — the
// shedding, flaky and dying serve-endpoint failure modes.
type Transport struct {
	// Base performs real round trips (nil = http.DefaultTransport).
	Base http.RoundTripper
	// S drives the decisions; a nil schedule injects nothing.
	S *Schedule
	// ErrorRate returns a transport error instead of contacting Base.
	ErrorRate float64
	// ShedRate returns a synthetic 503 with RetryAfterSecs (default 1)
	// instead of contacting Base.
	ShedRate       float64
	RetryAfterSecs int
	// LatencyRate sleeps Latency before the real round trip.
	LatencyRate float64
	Latency     time.Duration
	// CutRate truncates the response body after CutAfter bytes (default
	// 64), surfacing as an unexpected EOF mid-stream.
	CutRate  float64
	CutAfter int64
}

// RoundTrip implements http.RoundTripper.
//
//repro:nonnil a Transport is always constructed by the test or proxy that installs it
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.S.Decide(t.ErrorRate) {
		return nil, fmt.Errorf("faultinject: synthetic network error (%s %s)", req.Method, req.URL.Path)
	}
	if t.S.Decide(t.ShedRate) {
		secs := t.RetryAfterSecs
		if secs <= 0 {
			secs = 1
		}
		h := http.Header{}
		h.Set("Retry-After", strconv.Itoa(secs))
		h.Set("Content-Type", "text/plain; charset=utf-8")
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  h,
			Body:    io.NopCloser(strings.NewReader("faultinject: synthetic shed\n")),
			Request: req,
		}, nil
	}
	if t.S.Decide(t.LatencyRate) && t.Latency > 0 {
		select {
		case <-time.After(t.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.S.Decide(t.CutRate) {
		after := t.CutAfter
		if after <= 0 {
			after = 64
		}
		resp.Body = &cutBody{rc: resp.Body, left: after}
	}
	return resp, nil
}

// cutBody truncates a response body after left bytes, then reports an
// unexpected EOF — what a dropped connection looks like to the reader.
type cutBody struct {
	rc   io.ReadCloser
	left int64
}

//repro:nonnil constructed unconditionally in RoundTrip; never nil
func (c *cutBody) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.rc.Read(p)
	c.left -= int64(n)
	if err == nil && c.left <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

//repro:nonnil constructed unconditionally in RoundTrip; never nil
func (c *cutBody) Close() error { return c.rc.Close() }

// KillAfterRows wraps an executor and kills its first Times attempts
// after Rows complete rows reach the output — the executor-crash
// failure mode, leaving exactly the salvageable prefix a real kill -9
// mid-stream would.
type KillAfterRows struct {
	Exec fleet.Executor
	// Rows is how many complete rows (newline-terminated lines, header
	// included) pass through before the cut.
	Rows int
	// Times bounds how many attempts are killed (0 = every attempt).
	Times int

	killed atomic.Int64
}

// Killed reports how many attempts were actually cut.
func (k *KillAfterRows) Killed() int { return int(k.killed.Load()) }

// Name implements fleet.Executor.
//
//repro:nonnil constructed by the test that installs it; never nil
func (k *KillAfterRows) Name() string { return k.Exec.Name() }

// Run implements fleet.Executor.
//
//repro:nonnil constructed by the test that installs it; never nil
func (k *KillAfterRows) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	if k.Times > 0 && int(k.killed.Load()) >= k.Times {
		return k.Exec.Run(ctx, spec, points, w)
	}
	cw := &lineCutWriter{w: w, lines: k.Rows}
	err := k.Exec.Run(ctx, spec, points, cw)
	if cw.cut {
		k.killed.Add(1)
		return fmt.Errorf("faultinject: executor %s killed after %d lines", k.Exec.Name(), k.Rows)
	}
	return err
}

// lineCutWriter passes through until lines complete lines have been
// written, cuts mid-buffer at that boundary, and fails every write after
// — the stream a killed process leaves behind.
type lineCutWriter struct {
	w     io.Writer
	lines int
	seen  int
	cut   bool
}

//repro:nonnil constructed unconditionally in Run; never nil
func (c *lineCutWriter) Write(p []byte) (int, error) {
	if c.cut {
		return 0, fmt.Errorf("faultinject: stream already cut")
	}
	keep := len(p)
	for i, b := range p {
		if b != '\n' {
			continue
		}
		c.seen++
		if c.seen >= c.lines {
			keep = i + 1
			c.cut = true
			break
		}
	}
	n, err := c.w.Write(p[:keep])
	if err != nil {
		return n, err
	}
	if c.cut {
		return n, fmt.Errorf("faultinject: stream cut after %d lines", c.lines)
	}
	return n, nil
}

// Proxy is a fault-injecting HTTP pass-through for chaos tests across
// real processes (`dse faultproxy`): it forwards every request to Target
// and applies the Transport's decisions on the way — sheds before
// forwarding, errors as 502, body cuts via a Content-Length the
// truncated copy then violates, which the client observes as an
// unexpected EOF.
type Proxy struct {
	// Target is the upstream base URL (e.g. a real `dse serve`).
	Target string
	// T decides and performs the faults; its Base issues the upstream
	// requests.
	T *Transport
}

// maxBody bounds the request body the proxy forwards: `dse serve`
// refuses a spec over 1 MiB, and the proxy reads the body whole.
const maxBody = 1 << 20

// ServeHTTP implements http.Handler.
//
//repro:nonnil constructed by the faultproxy CLI or test; never nil
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Reading the body before the Transport applies its latency lets
	// net/http watch the client's connection meanwhile: a client that
	// goes away cancels r.Context() and ends the delay, so a graceful
	// stop does not wait it out.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err == nil && len(body) > maxBody {
		err = fmt.Errorf("request body exceeds %d bytes", maxBody)
	}
	if err != nil {
		http.Error(w, "faultproxy: "+err.Error(), http.StatusBadRequest)
		return
	}
	url := strings.TrimRight(p.Target, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.T.RoundTrip(req)
	if err != nil {
		http.Error(w, "faultproxy: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// A cutBody stops mid-copy; the client sees the short body against
	// the forwarded Content-Length (or a closed chunked stream) and
	// fails the read — a realistic mid-stream connection loss.
	io.Copy(w, resp.Body)
}
