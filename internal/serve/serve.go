// Package serve is the long-running estimation service behind `dse serve`:
// an HTTP/JSON API that runs design-space explorations against one
// process-wide warm simcache and analysis memo, so most traffic after
// warm-up is answered from memoized analyses and unit schedules (each
// (kernel, allocator, budget, sched) unit's allocation, plan and
// simulation) instead of recomputation: a repeated spec only applies the
// device models. Units a request is the first to schedule still share the
// store's class schedules.
//
//	POST /v1/explore?format=ndjson|table|csv|json   run a dse.SpaceSpec
//	     &shard=i/n                                 shard i of n (ndjson only)
//	     &points=3,17,42                            explicit points (ndjson only)
//	GET  /v1/metrics                                live repro-dse-metrics doc
//	GET  /healthz                                   readiness (503 when draining)
//
// The explore body is a dse.SpaceSpec (the same JSON-safe registry-name
// form shard headers carry). The default ndjson response is the portable
// repro-dse-shard encoding of a 0/1 shard — self-describing header,
// one row per point in canonical order, completeness trailer with the
// request's cache and obs snapshots — streamed as rows complete, so a
// client can reassemble it with `dse merge` (or internal/shard.Merge) into
// output byte-identical to a local run. The buffered table, csv and json
// formats return the CLI's exact bytes directly. With shard=i/n the
// response is shard i of the space's n-way partition — every n-th
// (kernel, allocator, budget) unit from unit i, ⌊g/w⌋ mod n = i with
// w = |Devices|·|Scheds| (dse.ShardPoint); the same bytes `dse -shard
// i/n` writes — and with points= it is an explicit-point task file
// (header carries the owned list) — both ndjson-only, and together they
// let a fleet driver treat remote servers as executors.
//
// Requests are admission-controlled: at most MaxInflight sweeps run
// concurrently, at most MaxQueue wait (bounded by the per-request
// deadline), and everything beyond that is rejected with 503 — an
// overloaded estimator sheds load instead of stacking unbounded work. Shed
// responses carry a Retry-After hint (integer seconds) so well-behaved
// clients — the fleet driver's HTTP executors — come back when capacity
// is likely, instead of guessing with blind backoff. SetDraining
// flips readiness for graceful shutdown: /healthz and new explores return
// 503 while in-flight sweeps finish.
//
// Observability is split by scope: engine stages of one request land in a
// request-scoped registry (its snapshot rides the response trailer), while
// the serve/* stages and the shared cache's tier counters are
// process-wide; /v1/metrics serves the process registry with all request
// snapshots summed in, so the scrape sees the whole service.
//
// Static invariants enforced by reprovet (DESIGN.md §10):
//
//repro:recover-workers
//repro:nilsafe
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/simcache"
)

// maxSpecSize bounds an explore request body. A SpaceSpec is a few hundred
// bytes of registry names and small ints; a megabyte of headroom covers
// any expressible space.
const maxSpecSize = 1 << 20

// Config tunes one Server.
type Config struct {
	// Workers is handed to each request's engine (0 = GOMAXPROCS); the
	// engine sizes its order-restoring window from it.
	Workers int
	// MaxInflight caps concurrently running sweeps (≤0 = 2): each sweep
	// saturates its own worker pool, so a small number keeps the host
	// busy without thrashing.
	MaxInflight int
	// MaxQueue caps sweeps waiting for an in-flight slot (<0 = 0); a
	// queued request still spends its deadline waiting.
	MaxQueue int
	// Timeout is the per-request deadline, queue wait included (≤0 =
	// none). The engine owns cancellation: at the deadline (or a client
	// disconnect) it halts dispatch and writes no further row.
	Timeout time.Duration
	// RetryAfter is the hint sent with every 503 shed, telling clients
	// when to come back (rounded up to whole seconds on the wire; ≤0 =
	// 1s). Roughly the expected drain time of one queued sweep.
	RetryAfter time.Duration
	// Log, when non-nil, receives one line per completed request.
	Log io.Writer
}

// Server runs explorations against one shared warm cache.
type Server struct {
	cache *simcache.Cache
	// analyses is the process-lifetime memo of front-end analyses and unit
	// schedules: a warm request's analyze stage is one key and one map
	// lookup, and each unit an earlier request scheduled is one more,
	// however many requests came before.
	analyses *dse.AnalysisCache
	metrics  *obs.Metrics
	cfg      Config
	mux      *http.ServeMux
	start    time.Time

	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	// Process-wide serve stages: request duration, queue wait, shed or
	// refused load, handler-level validation failures, recovered panics.
	requestT, queueT        *obs.StageStats
	rejectT, errorT, panicT *obs.StageStats

	mu         sync.Mutex
	points     int
	failed     int
	uniqueSims int
	reqObs     obs.Snapshot
}

// New builds a Server over a shared cache and the process metrics registry.
// The cache arrives fully wired (SetObs done by the caller — the server
// never reconfigures it, because requests race on it). metrics may be nil
// (observability off).
func New(cache *simcache.Cache, metrics *obs.Metrics, cfg Config) (*Server, error) {
	if cache == nil {
		return nil, errors.New("serve: nil simcache (the shared store is the point of the service)")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cache:    cache,
		analyses: dse.NewAnalysisCache(),
		metrics:  metrics,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		sem:      make(chan struct{}, cfg.MaxInflight),
		requestT: metrics.Stage("serve/request"),
		queueT:   metrics.Stage("serve/queue"),
		rejectT:  metrics.Stage("serve/reject"),
		errorT:   metrics.Stage("serve/error"),
		panicT:   metrics.Stage("serve/panic"),
	}
	s.mux.Handle("/v1/explore", s.protect(s.handleExplore))
	metricsH := s.protect(func(w http.ResponseWriter, _ *http.Request) {
		writeMetricsDoc(w, s.Doc())
	})
	s.mux.Handle("/v1/metrics", metricsH)
	s.mux.Handle("/metrics", metricsH) // alias: the -metrics-addr surface
	s.mux.Handle("/healthz", s.protect(s.handleHealthz))
	return s, nil
}

// Handler returns the service's HTTP surface.
//
//repro:nonnil a Server only exists via New; there is no meaningful handler for a nil service
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips readiness: while draining, /healthz and new explore
// requests answer 503 (in-flight sweeps are unaffected), so a load
// balancer stops routing here before the process exits.
func (s *Server) SetDraining(v bool) {
	if s == nil {
		return
	}
	s.draining.Store(v)
}

// Doc assembles the live metrics document: totals and request-scoped obs
// summed over completed requests, the shared cache's lifetime counters,
// and the process registry (serve/*, cache tiers).
func (s *Server) Doc() MetricsDoc {
	if s == nil {
		return MetricsDoc{Format: MetricsFormat, Version: MetricsVersion}
	}
	s.mu.Lock()
	points, failed, uniqueSims, agg := s.points, s.failed, s.uniqueSims, s.reqObs
	s.mu.Unlock()
	return MetricsDoc{
		Format: MetricsFormat, Version: MetricsVersion,
		Points: points, Failed: failed, UniqueSims: uniqueSims,
		WallNs: int64(time.Since(s.start)),
		Cache:  s.cache.Snapshot(),
		Obs:    s.metrics.Snapshot().Add(agg),
	}
}

// protect is the handler-level panic boundary: the engine's own goroutines
// recover via goRecover, and this catches anything thrown on the request
// goroutine itself, so one poisoned request cannot kill the service.
func (s *Server) protect(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panicT.Inc()
				s.logf("panic %s %s: %v", r.Method, r.URL.Path, v)
				// Best-effort: headers may already be out on a streaming
				// response, in which case the truncated body is the signal.
				http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
			}
		}()
		h(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.shed(w, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// shed rejects one request with 503 and the configured Retry-After hint.
// Every shed path goes through here so the hint is never forgotten — the
// fleet's HTTP executor keys its backoff on it.
func (s *Server) shed(w http.ResponseWriter, msg string) {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// admit acquires an in-flight slot, queueing (bounded) when the service is
// busy. The returned release must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if int(s.queued.Add(1)) > s.cfg.MaxQueue {
		s.queued.Add(-1)
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	tm := s.queueT.Start()
	defer tm.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

var errBusy = errors.New("serve: explore queue full")

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.errorT.Inc()
		http.Error(w, "method not allowed (POST a dse.SpaceSpec)", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.rejectT.Inc()
		s.shed(w, "draining")
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "ndjson"
	}
	var render dse.Renderer
	if format != "ndjson" {
		var err error
		if render, err = dse.RendererFor(format); err != nil {
			s.errorT.Inc()
			http.Error(w, err.Error()+" or ndjson", http.StatusBadRequest)
			return
		}
	}
	// A slice request — a shard or an explicit point list — streams the
	// portable shard encoding only: the buffered formats render a whole
	// exploration, and a fleet reassembles slices with the shard tooling.
	shardArg, pointsArg := q.Get("shard"), q.Get("points")
	if (shardArg != "" || pointsArg != "") && format != "ndjson" {
		s.errorT.Inc()
		http.Error(w, "shard/points slices are ndjson-only (reassemble with dse merge / the fleet driver)", http.StatusBadRequest)
		return
	}
	if shardArg != "" && pointsArg != "" {
		s.errorT.Inc()
		http.Error(w, "shard and points are mutually exclusive", http.StatusBadRequest)
		return
	}
	plan := shard.Plan{Index: 0, Count: 1}
	if shardArg != "" {
		var err error
		if plan, err = shard.ParsePlan(shardArg); err != nil {
			s.errorT.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	var points []int
	if pointsArg != "" {
		var err error
		if points, err = dse.ParseInts(pointsArg, 0); err != nil {
			s.errorT.Inc()
			http.Error(w, "bad points list: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	// The body is one spec, decoded as `dse -space` decodes a file: data
	// after the first JSON value is an error, not ignored.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecSize+1))
	if err == nil && len(body) > maxSpecSize {
		err = fmt.Errorf("body exceeds %d bytes", maxSpecSize)
	}
	var spec dse.SpaceSpec
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err != nil {
		s.errorT.Inc()
		http.Error(w, "bad space spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	sp, err := spec.Space()
	if err != nil {
		s.errorT.Inc()
		http.Error(w, "bad space spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if points != nil {
		// Validate here so a malformed list is the client's 400, not a 500
		// from the engine after the request burned an admission slot.
		if err := dse.CheckPoints(points, sp.Size()); err != nil {
			s.errorT.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	release, err := s.admit(ctx)
	if err != nil {
		s.rejectT.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			http.Error(w, "estimation service busy: "+err.Error(), http.StatusGatewayTimeout)
			return
		}
		s.shed(w, "estimation service busy: "+err.Error())
		return
	}
	defer release()

	// Engine stages land in a request-scoped registry (the response
	// trailer carries its snapshot); the shared cache keeps feeding the
	// process registry it was wired to at startup.
	reqObs := obs.New()
	engine := dse.Engine{Workers: s.cfg.Workers, SimCache: s.cache, Analyses: s.analyses, Obs: reqObs}
	tm := s.requestT.Start()
	start := time.Now()
	var st dse.StreamStats
	switch {
	case points != nil:
		w.Header().Set("Content-Type", "application/x-ndjson")
		fw := newFlushWriter(w, ctx)
		st, err = engine.ExploreSubsetStream(ctx, sp, points, shard.NewTaskWriter(fw, points))
	case format == "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		fw := newFlushWriter(w, ctx)
		st, err = engine.ExploreShardStream(ctx, sp, plan.Index, plan.Count, shard.NewWriter(fw, plan))
	default:
		var buf bytes.Buffer
		st, err = engine.ExploreShardStream(ctx, sp, 0, 1, dse.InstrumentReporter(render.Stream(&buf), reqObs, format))
		if err == nil {
			w.Header().Set("Content-Type", contentType(format))
			_, err = w.Write(buf.Bytes())
		}
	}
	tm.Stop()

	s.mu.Lock()
	s.points += st.Points
	s.failed += st.Failed
	s.uniqueSims += st.UniqueSims
	s.reqObs = s.reqObs.Add(reqObs.Snapshot())
	s.mu.Unlock()

	if err != nil {
		s.errorT.Inc()
		// On the buffered path before any write, a status can still go
		// out; mid-stream the truncated body (no trailer line) is the
		// client's completeness signal either way.
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		http.Error(w, "explore failed: "+err.Error(), code)
		s.logf("explore format=%s points=%d err=%v", format, st.Points, err)
		return
	}
	s.logf("explore format=%s points=%d failed=%d unique_sims=%d wall=%v cache(%s)",
		format, st.Points, st.Failed, st.UniqueSims,
		time.Since(start).Round(time.Millisecond), st.Cache.String())
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "serve: "+format+"\n", args...)
}

func contentType(format string) string {
	switch format {
	case "csv":
		return "text/csv; charset=utf-8"
	case "json":
		return "application/json"
	}
	return "text/plain; charset=utf-8"
}

// flushWriter pushes each buffered chunk of the NDJSON stream to the
// client immediately (rows reach a watching client as they complete, not
// when the sweep ends) and stops accepting writes once the request
// context is done.
type flushWriter struct {
	w   io.Writer
	f   http.Flusher
	ctx context.Context
}

func newFlushWriter(w http.ResponseWriter, ctx context.Context) *flushWriter {
	fw := &flushWriter{w: w, ctx: ctx}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	return fw
}

//repro:nonnil constructed unconditionally by newFlushWriter; never nil
func (fw *flushWriter) Write(p []byte) (int, error) {
	if err := fw.ctx.Err(); err != nil {
		return 0, err
	}
	n, err := fw.w.Write(p)
	if err == nil && fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}
