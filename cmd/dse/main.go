// Command dse runs a concurrent design-space exploration over the kernel
// suite: the cross-product of kernels × allocators × register budgets ×
// devices × scheduler configurations is evaluated on a worker pool and the
// results stream — through an order-restoring window, so memory stays
// bounded however large the space — into a table, CSV or JSON report with
// per-kernel Pareto frontiers. Output is byte-identical whatever the
// worker count.
//
// Simulation work is deduplicated at three levels: identical plans share
// one simulation (the plan cache), distinct plans share per-class
// schedules (the simulation store, see internal/simcache, which also holds
// front-end analyses), and with -simcache-dir the store persists to disk,
// so independent shard processes share it too. -portfolio
// collapses the allocator axis: each point runs every allocator and keeps
// the best design by (time, slices, registers).
//
// Every run is instrumented (internal/obs): per-stage timings and cache
// tiers accumulate into a mergeable snapshot that -metrics writes as JSON,
// -metrics-addr serves over HTTP while the sweep runs, and the stderr
// stats line summarizes. -trace records bounded per-point stage spans as
// JSONL; -exectrace captures a runtime execution trace with one region
// per design point; worker goroutines carry pprof (kernel, stage, shard)
// labels, so -cpuprofile decomposes by pipeline stage. Report bytes are
// identical with or without any of these.
//
// `dse serve` runs exploration as a long-running HTTP service over one
// warm shared simcache (internal/serve); `dse cached` serves only the
// content-addressed blob store, so sweeps on other hosts (-simcache-url)
// and other `dse serve` instances dedup simulation work without a shared
// filesystem.
//
// Usage:
//
//	dse                                  # stock 192-point sweep, text table
//	dse -format csv -budgets 16,32,64,128 > sweep.csv
//	dse -format json -kernels fir,mat -allocs CPA-RA,KS-RA -workers 8
//	dse -devices XCV1000,XC2V6000,XC2V1000 -memlat 1,2,4 -ports 1,2
//	dse -portfolio -format table         # best allocator per point
//
//	dse -metrics m.json -trace t.jsonl > sweep.txt    # observe a sweep
//	dse -metrics-addr 127.0.0.1:9090 &                # ...or scrape it live
//	dse -cpuprofile cpu.pprof                         # then: go tool pprof -tags
//
//	dse -shard 0/3 -simcache-dir /tmp/sc > s0.jsonl   # one shard per process/host...
//	dse -shard 1/3 -simcache-dir /tmp/sc > s1.jsonl   # ...sharing simulation work
//	dse -shard 2/3 -simcache-dir /tmp/sc > s2.jsonl
//	dse merge -format csv s0.jsonl s1.jsonl s2.jsonl  # ...merged back, metrics summed
//
//	dse serve -addr :8080 &                           # estimation service...
//	curl -d @spec.json 'localhost:8080/v1/explore?format=csv'
//	dse cached -addr :8081 -simcache-dir /var/sc &    # ...or just the blob store
//	dse -simcache-url http://cachehost:8081           # sweep against it
//
//	dse -space spec.json -points 3,17,40 > t.jsonl    # explicit points, task encoding
//	dse fleet -local 3 -dir /tmp/sweep                # fault-tolerant multi-executor sweep
//	dse fleet -remote http://a:8080,http://b:8080     # ...across serve endpoints
//	dse faultproxy -target http://localhost:8081 -shed-rate 0.2 -cut-rate 0.1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/fleet/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/simcache"
)

func main() {
	if len(os.Args) > 1 {
		if sub, ok := map[string]func([]string) error{
			"merge":      runMerge,
			"serve":      runServe,
			"cached":     runCached,
			"fleet":      runFleet,
			"faultproxy": runFaultProxy,
		}[os.Args[1]]; ok {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "dse %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	cfg := cliConfig{space: addSpaceFlags(flag.CommandLine, "load the space from this spec JSON file instead of the axis flags (mutually exclusive with them)")}
	flag.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.format, "format", "table", "output format: table, csv or json")
	flag.StringVar(&cfg.shardSpec, "shard", "", "evaluate one shard i/n of the space and emit the portable shard encoding instead of a report")
	flag.StringVar(&cfg.pointsSpec, "points", "", "evaluate exactly these comma-separated global point indices and emit the portable task encoding (the `dse fleet` worker shape)")
	flag.BoolVar(&cfg.strict, "strict", false, "exit non-zero when any design point fails")
	flag.BoolVar(&cfg.nocache, "nocache", false, "disable the cross-point simulation cache (diagnostic; output is byte-identical either way)")
	flag.BoolVar(&cfg.portfolio, "portfolio", false, "run every allocator per point and keep the best design by (time, slices, registers)")
	flag.BoolVar(&cfg.pfAll, "portfolio-all", false, "with -portfolio (implied), additionally report every member allocator's metrics per point (CSV role column, JSON portfolio array, indented table rows)")
	flag.StringVar(&cfg.cacheDir, "simcache-dir", "", "back the simulation store with files in this directory (shared across shard processes)")
	flag.StringVar(&cfg.cacheURL, "simcache-url", "", "share the simulation store with a blob server at this base URL (`dse cached` or `dse serve`); combines with -simcache-dir as a local tier")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the stderr stats summary")
	flag.StringVar(&cfg.metricsPath, "metrics", "", "write the per-stage metrics snapshot as JSON to this file")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve the live metrics snapshot as JSON over HTTP on this address (GET /metrics)")
	flag.DurationVar(&cfg.linger, "metrics-linger", 0, "with -metrics-addr, keep serving the final snapshot this long after the sweep before exiting")
	flag.StringVar(&cfg.tracePath, "trace", "", "write bounded per-point stage spans as JSONL to this file")
	flag.IntVar(&cfg.traceCap, "trace-cap", 0, "per-point trace ring capacity (0 = default 8192; the slowest 64 spans are kept regardless)")
	flag.StringVar(&cfg.execTracePath, "exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "format" {
			cfg.formatSet = true
		}
	})
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
	}
	err := run(cfg)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if perr := writeHeapProfile(*memProf); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

// cliConfig is the parsed command line.
type cliConfig struct {
	space                                 *spaceFlags
	workers                               int
	format, shardSpec, cacheDir, cacheURL string
	pointsSpec                            string
	formatSet, strict, nocache            bool
	portfolio, pfAll, quiet               bool
	metricsPath, metricsAddr              string
	linger                                time.Duration
	tracePath, execTracePath              string
	traceCap                              int
}

// spaceFlags are the space description `dse` and `dse fleet` share: the
// six axis flags, or -space naming a spec file instead of them.
type spaceFlags struct {
	fs                                               *flag.FlagSet
	kernels, allocs, budgets, devices, memlat, ports *string
	path                                             *string
}

var axisFlagNames = []string{"kernels", "allocs", "budgets", "devices", "memlat", "ports"}

func addSpaceFlags(fs *flag.FlagSet, spaceUsage string) *spaceFlags {
	return &spaceFlags{
		fs:      fs,
		kernels: fs.String("kernels", "", "comma-separated kernels (default: the six Table-1 kernels)"),
		allocs:  fs.String("allocs", "", "comma-separated allocators (default: FR-RA,PR-RA,CPA-RA,KS-RA)"),
		budgets: fs.String("budgets", "16,32,64,128", "comma-separated register budgets (0 = kernel default)"),
		devices: fs.String("devices", "XCV1000,XC2V6000", "comma-separated device presets"),
		memlat:  fs.String("memlat", "1", "comma-separated RAM access latencies (cycles)"),
		ports:   fs.String("ports", "1", "comma-separated RAM port counts"),
		path:    fs.String("space", "", spaceUsage),
	}
}

// resolve returns the space the parsed flags describe and, when it came
// from -space, the spec file as written (a SpaceSpec: the body `dse
// serve` accepts, the header shard files carry). -space excludes the axis
// flags and any of the also-named flags.
func (f *spaceFlags) resolve(also ...string) (dse.Space, *dse.SpaceSpec, error) {
	if *f.path == "" {
		sp, err := dse.BuildSpace(*f.kernels, *f.allocs, *f.budgets, *f.devices, *f.memlat, *f.ports)
		return sp, nil, err
	}
	// A spec file is the whole space, axes included: combining it with
	// axis flags would silently discard one of the two descriptions.
	conflict := ""
	f.fs.Visit(func(fl *flag.Flag) {
		if slices.Contains(axisFlagNames, fl.Name) || slices.Contains(also, fl.Name) {
			conflict = fl.Name
		}
	})
	if conflict != "" {
		return dse.Space{}, nil, fmt.Errorf("-space is mutually exclusive with the axis flags (-%s was set)", conflict)
	}
	data, err := os.ReadFile(*f.path)
	if err != nil {
		return dse.Space{}, nil, err
	}
	var spec dse.SpaceSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return dse.Space{}, nil, fmt.Errorf("%s: not a space spec: %w", *f.path, err)
	}
	sp, err := spec.Space()
	return sp, &spec, err
}

// buildCache constructs the simulation store for a hand-wired engine cache:
// directory-backed when dir is non-empty, memory-only otherwise.
func buildCache(dir string) (*simcache.Cache, error) {
	if dir != "" {
		return simcache.NewDir(dir)
	}
	return simcache.New(), nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // up-to-date allocation data
	return pprof.WriteHeapProfile(f)
}

func run(cfg cliConfig) error {
	if cfg.pfAll && (cfg.shardSpec != "" || cfg.pointsSpec != "") {
		return errors.New("-portfolio-all is a local diagnostic and cannot be combined with -shard or -points (portable rows carry winners only)")
	}
	if cfg.shardSpec != "" && cfg.pointsSpec != "" {
		return errors.New("-shard and -points are mutually exclusive slices of the space")
	}
	sp, spec, err := cfg.space.resolve("portfolio", "portfolio-all")
	if err != nil {
		return err
	}
	if spec == nil {
		sp.Portfolio = cfg.portfolio || cfg.pfAll
		sp.PortfolioAll = cfg.pfAll
	}

	// Observability is always on in the CLI: the disabled path exists for
	// library users and the allocation regression tests; one metrics
	// registry per process costs microseconds against a sweep.
	metrics := obs.New()
	var tracer *obs.Tracer
	if cfg.tracePath != "" {
		tracer = obs.NewTracer(cfg.traceCap)
	}
	engine := dse.Engine{
		Workers: cfg.workers, NoSimCache: cfg.nocache, SimCacheDir: cfg.cacheDir,
		Obs: metrics, Trace: tracer,
	}
	if cfg.cacheURL != "" && !cfg.nocache {
		// A remote blob tier needs a hand-built store: layered
		// memory → disk (when -simcache-dir is also given) → remote, wired
		// to this run's metrics, handed to the engine pre-built.
		store, err := buildCache(cfg.cacheDir)
		if err != nil {
			return err
		}
		store.SetRemote(simcache.NewRemote(cfg.cacheURL))
		store.SetObs(metrics)
		engine.SimCache = store
	}

	if cfg.execTracePath != "" {
		f, err := os.Create(cfg.execTracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}

	start := time.Now()
	var srv *serve.MetricsServer
	if cfg.metricsAddr != "" {
		srv, err = serve.ListenMetrics(cfg.metricsAddr, func() serve.MetricsDoc {
			return serve.MetricsDoc{
				Format: serve.MetricsFormat, Version: serve.MetricsVersion,
				WallNs: int64(time.Since(start)),
				Obs:    metrics.Snapshot(),
			}
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, "dse: serving metrics on http://%s/metrics\n", srv.Addr())
		}
	}

	var st dse.StreamStats
	var plan shard.Plan
	if cfg.shardSpec != "" {
		plan, err = shard.ParsePlan(cfg.shardSpec)
		if err != nil {
			return err
		}
		metrics.SetBase("shard", plan.String())
		if cfg.formatSet {
			fmt.Fprintln(os.Stderr, "dse: note: -format is ignored with -shard; shards always emit the portable encoding (render with `dse merge`)")
		}
		st, err = shard.Run(engine, sp, plan, os.Stdout)
		if err != nil {
			return err
		}
	} else if cfg.pointsSpec != "" {
		pts, perr := dse.ParseInts(cfg.pointsSpec, 0)
		if perr != nil {
			return fmt.Errorf("-points: %w", perr)
		}
		metrics.SetBase("points", fmt.Sprintf("%d", len(pts)))
		if cfg.formatSet {
			fmt.Fprintln(os.Stderr, "dse: note: -format is ignored with -points; explicit point-sets always emit the portable task encoding (assemble with `dse fleet` or `dse merge` tooling)")
		}
		out := bufio.NewWriter(os.Stdout)
		st, err = engine.ExploreSubsetStream(context.Background(), sp, pts, shard.NewTaskWriter(out, pts))
		if err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	} else {
		rep, rerr := dse.RendererFor(cfg.format)
		if rerr != nil {
			return rerr
		}
		// Streaming reporters write per point; buffer stdout so a large
		// sweep is not O(points) small syscalls.
		out := bufio.NewWriter(os.Stdout)
		st, err = engine.ExploreStream(sp, dse.InstrumentReporter(rep.Stream(out), metrics, cfg.format))
		if err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	wall := time.Since(start)

	// Final artifacts re-snapshot, so reporter End time is included.
	doc := serve.MetricsDoc{
		Format: serve.MetricsFormat, Version: serve.MetricsVersion,
		Points: st.Points, Failed: st.Failed, UniqueSims: st.UniqueSims,
		WallNs: int64(wall), Cache: st.Cache, Obs: metrics.Snapshot(),
	}
	if cfg.metricsPath != "" {
		if err := serve.WriteMetricsFile(cfg.metricsPath, doc); err != nil {
			return err
		}
	}
	if cfg.tracePath != "" {
		if err := writeTrace(cfg.tracePath, tracer); err != nil {
			return err
		}
	}
	if !cfg.quiet {
		// One Write for the whole summary: concurrent shard processes
		// sharing a stderr interleave whole summaries, never lines.
		prefix := "dse"
		if cfg.shardSpec != "" {
			prefix = fmt.Sprintf("dse: shard %s", plan)
		} else if cfg.pointsSpec != "" {
			prefix = fmt.Sprintf("dse: points[%d]", st.Points)
		}
		fmt.Fprintf(os.Stderr, "%s: %d points in %v (%d failed, %s)\n%s: stages: %s\n",
			prefix, st.Points, wall.Round(time.Millisecond), st.Failed, simsNote(st, cfg.nocache),
			prefix, doc.Obs.Summary(5))
	}
	if srv != nil && cfg.linger > 0 {
		srv.Set(doc)
		time.Sleep(cfg.linger)
	}
	if cfg.strict {
		return st.FirstErr
	}
	return nil
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("dse merge", flag.ExitOnError)
	format := fs.String("format", "table", "output format: table, csv or json")
	strict := fs.Bool("strict", false, "exit non-zero when any design point fails")
	quiet := fs.Bool("quiet", false, "suppress the stderr stats summary")
	metricsPath := fs.String("metrics", "", "write the merged (stage-wise summed) metrics snapshot as JSON to this file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse merge [-format table|csv|json] [-strict] [-quiet] [-metrics m.json] shard.jsonl ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no shard files given (usage: dse merge [-format f] shard.jsonl ...)")
	}
	start := time.Now()
	rs, err := shard.MergeFiles(fs.Args()...)
	if err != nil {
		return err
	}
	rep, err := dse.RendererFor(*format)
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		doc := serve.MetricsDoc{
			Format: serve.MetricsFormat, Version: serve.MetricsVersion,
			Points: len(rs.Results), Failed: len(rs.Failed()), UniqueSims: rs.UniqueSims,
			WallNs: int64(time.Since(start)), Cache: rs.Cache, Obs: rs.Obs,
		}
		if err := serve.WriteMetricsFile(*metricsPath, doc); err != nil {
			return err
		}
	}
	if !*quiet {
		summary := ""
		if !rs.Obs.Zero() {
			summary = fmt.Sprintf("\ndse merge: stages: %s", rs.Obs.Summary(5))
		}
		fmt.Fprintf(os.Stderr, "dse merge: %d shards, %d points (%d failed, %d unique simulations summed%s)%s\n",
			fs.NArg(), len(rs.Results), len(rs.Failed()), rs.UniqueSims, cacheNote(rs.Cache), summary)
	}
	if err := rep.Report(os.Stdout, rs); err != nil {
		return err
	}
	if *strict {
		return rs.FirstErr()
	}
	return nil
}

func simsNote(st dse.StreamStats, nocache bool) string {
	if nocache {
		return "cache off"
	}
	return fmt.Sprintf("%d unique simulations%s", st.UniqueSims, cacheNote(st.Cache))
}

// cacheNote renders the per-stage hit counters (front-end analyses, entry
// fragments, class schedules, whole plans) as hits[+diskHits]/misses per
// stage.
func cacheNote(s simcache.Snapshot) string {
	if s.Zero() {
		return ""
	}
	return "; " + s.String()
}

// runServe is the `dse serve` entry point: the long-running estimation
// service (internal/serve) over one warm shared simcache, with graceful
// drain on SIGINT/SIGTERM.
func runServe(args []string) error {
	fs := flag.NewFlagSet("dse serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheDir := fs.String("simcache-dir", "", "backing directory of the shared simulation store (default: a fresh temp directory; also served at /v1/blob/)")
	cacheURL := fs.String("simcache-url", "", "upstream blob server to layer behind memory and disk")
	workers := fs.Int("workers", 0, "per-request worker pool size (0 = GOMAXPROCS)")
	window := fs.Int("window", 0, "per-request order-restoring window in points (0 = engine default; raised to the largest unit, |devices|·|sched variants|)")
	maxInflight := fs.Int("max-inflight", 2, "maximum concurrently running sweeps")
	maxQueue := fs.Int("max-queue", 16, "maximum sweeps waiting for a slot before 503")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline, queue wait included (0 = none)")
	quiet := fs.Bool("quiet", false, "suppress stderr request and lifecycle lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse serve [-addr host:port] [-simcache-dir d] [-simcache-url u] [-workers n] [-max-inflight n] [-max-queue n] [-request-timeout d] [-quiet]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	dir := *cacheDir
	if dir == "" {
		// The blob endpoint and restart warm-up both want a directory; a
		// temp one gives every default server the full protocol surface.
		var err error
		if dir, err = os.MkdirTemp("", "dse-simcache-"); err != nil {
			return err
		}
	}
	cache, err := simcache.NewDir(dir)
	if err != nil {
		return err
	}
	metrics := obs.New()
	cache.SetObs(metrics)
	if *cacheURL != "" {
		cache.SetRemote(simcache.NewRemote(*cacheURL))
	}
	var logw io.Writer
	if !*quiet {
		logw = os.Stderr
	}
	srv, err := serve.New(cache, metrics, serve.Config{
		Workers: *workers, Window: *window,
		MaxInflight: *maxInflight, MaxQueue: *maxQueue,
		Timeout: *reqTimeout, Log: logw,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse serve: listening on http://%s (simcache dir %s)\n", ln.Addr(), dir)
	}
	return serveUntilSignal(ln, srv.Handler(), func() {
		srv.SetDraining(true)
		if !*quiet {
			doc := srv.Doc()
			fmt.Fprintf(os.Stderr, "dse serve: draining (%d points served, %d failed; cache %s)\n",
				doc.Points, doc.Failed, doc.Cache.String())
		}
	})
}

// runCached is the `dse cached` entry point: just the content-addressed
// blob store over a backing directory, for fleets whose sweep processes
// (-simcache-url) or serve instances share simulation work without a
// shared filesystem.
func runCached(args []string) error {
	fs := flag.NewFlagSet("dse cached", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8081", "listen address")
	cacheDir := fs.String("simcache-dir", "", "backing directory of the blob store (default: a fresh temp directory)")
	quiet := fs.Bool("quiet", false, "suppress stderr lifecycle lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse cached [-addr host:port] [-simcache-dir d] [-quiet]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	dir := *cacheDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "dse-simcache-"); err != nil {
			return err
		}
	}
	cache, err := simcache.NewDir(dir)
	if err != nil {
		return err
	}
	h, err := simcache.NewBlobHandler(cache, obs.New())
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/blob/", h)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse cached: serving blobs on http://%s (dir %s)\n", ln.Addr(), dir)
	}
	return serveUntilSignal(ln, mux, nil)
}

// serveUntilSignal serves HTTP until SIGINT/SIGTERM, then drains: onDrain
// (readiness flip, log line) runs first, then in-flight requests get a
// bounded grace period to finish. A clean drain exits 0.
func serveUntilSignal(ln net.Listener, h http.Handler, onDrain func()) error {
	hs := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}

// runFleet is the `dse fleet` entry point: the fault-tolerant
// multi-executor sweep driver (internal/fleet) over local dse
// subprocesses and/or remote `dse serve` endpoints, with checkpointed
// point-granular recovery. Rerunning with the same -dir resumes from
// whatever the previous run salvaged.
func runFleet(args []string) error {
	fs := flag.NewFlagSet("dse fleet", flag.ExitOnError)
	spaceArgs := addSpaceFlags(fs, "load the space from this spec JSON file instead of the axis flags")
	format := fs.String("format", "table", "output format: table, csv or json")
	dir := fs.String("dir", "", "checkpoint directory; rerun with the same -dir to resume (default: a fresh temp directory, removed on exit)")
	local := fs.Int("local", 0, "local dse subprocess executors (default: 2 when no -remote is given)")
	remotes := fs.String("remote", "", "comma-separated base URLs of `dse serve` endpoints to enlist")
	bin := fs.String("bin", "", "dse binary for local executors (default: this executable)")
	cacheDir := fs.String("simcache-dir", "", "shared simulation store directory passed to local executors")
	cacheURL := fs.String("simcache-url", "", "blob server URL passed to local executors")
	tasks := fs.Int("tasks", 0, "initial task partition count (0 = one per executor)")
	maxAttempts := fs.Int("max-attempts", 0, "consecutive zero-progress attempts before a task fails the run (0 = 3)")
	budget := fs.Int("attempt-budget", 0, "total dispatches across the run (0 = tasks + 8 per executor)")
	backoff := fs.Duration("backoff", 0, "first-retry backoff, doubling per consecutive failure (0 = 100ms)")
	stallFloor := fs.Duration("stall-floor", 0, "minimum no-progress time before a straggler kill (0 = 10s)")
	stallFactor := fs.Float64("stall-factor", 0, "straggler threshold as a multiple of the fleet-wide p99 row gap (0 = 16)")
	maxExecFails := fs.Int("max-exec-fails", 0, "consecutive failures before an executor retires (0 = 3)")
	reportPath := fs.String("report", "", "write the recovery report (attempts, salvages, steals, stragglers) as JSON to this file")
	strict := fs.Bool("strict", false, "exit non-zero when any design point fails")
	quiet := fs.Bool("quiet", false, "suppress stderr scheduling and summary lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse fleet [-local n] [-remote url,url] [-dir d] [axis flags | -space spec.json] [-format f] [tuning flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	sp, file, err := spaceArgs.resolve()
	if err != nil {
		return err
	}
	spec := dse.Spec(sp)
	if file != nil {
		spec = *file
	}

	nLocal := *local
	if nLocal == 0 && *remotes == "" {
		nLocal = 2
	}
	var workerArgs []string
	if *cacheDir != "" {
		workerArgs = append(workerArgs, "-simcache-dir", *cacheDir)
	}
	if *cacheURL != "" {
		workerArgs = append(workerArgs, "-simcache-url", *cacheURL)
	}
	var execs []fleet.Executor
	for i := 0; i < nLocal; i++ {
		execs = append(execs, &fleet.ProcExecutor{Label: fmt.Sprintf("local%d", i), Bin: *bin, Args: workerArgs})
	}
	ri := 0
	for _, u := range strings.Split(*remotes, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		execs = append(execs, &fleet.HTTPExecutor{Label: fmt.Sprintf("remote%d", ri), Base: u})
		ri++
	}
	if len(execs) == 0 {
		return errors.New("no executors: -local 0 and no -remote endpoints")
	}

	var logw io.Writer
	if !*quiet {
		logw = os.Stderr
	}
	d, err := fleet.New(fleet.Config{
		Dir: *dir, Tasks: *tasks,
		MaxAttempts: *maxAttempts, AttemptBudget: *budget, Backoff: *backoff,
		StallFloor: *stallFloor, StallFactor: *stallFactor,
		MaxExecFails: *maxExecFails, Log: logw,
	}, execs...)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	rs, frep, err := d.Run(ctx, spec)
	if *reportPath != "" {
		// The report is the run's recovery record; write it on failure too —
		// the CI chaos smoke and a resuming operator both want it.
		data, merr := json.MarshalIndent(frep, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*reportPath, append(data, '\n'), 0o644)
		}
		if merr != nil && err == nil {
			err = merr
		}
	}
	if err != nil {
		return err
	}
	rep, err := dse.RendererFor(*format)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	if err := rep.Report(out, rs); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse fleet: %d points on %d executors in %v (%d tasks, %d attempts; resumed %d rows, salvaged %d attempts, stole %d tasks, killed %d stragglers, retired %d executors)\n",
			len(rs.Results), len(execs), time.Since(start).Round(time.Millisecond),
			frep.Tasks, frep.Attempts, frep.ResumedRows, frep.Salvaged, frep.Stolen, frep.Stragglers, frep.Retired)
	}
	if *strict {
		return rs.FirstErr()
	}
	return nil
}

// runFaultProxy is the `dse faultproxy` entry point: a seeded
// fault-injecting HTTP pass-through (internal/fleet/faultinject) for
// chaos-testing fleets across real processes — stand it between workers
// and a `dse cached`/`dse serve` upstream and dial in sheds, errors,
// latency and mid-stream cuts.
func runFaultProxy(args []string) error {
	fs := flag.NewFlagSet("dse faultproxy", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	target := fs.String("target", "", "upstream base URL to forward to (required)")
	seed := fs.Int64("seed", 1, "fault schedule seed (same seed, same fault sequence)")
	errorRate := fs.Float64("error-rate", 0, "probability a request fails upstream-less with 502")
	shedRate := fs.Float64("shed-rate", 0, "probability a request is shed with 503 + Retry-After")
	retryAfter := fs.Int("retry-after", 1, "Retry-After seconds on synthetic sheds")
	latencyRate := fs.Float64("latency-rate", 0, "probability a request is delayed by -latency")
	latency := fs.Duration("latency", 0, "injected delay for -latency-rate requests")
	cutRate := fs.Float64("cut-rate", 0, "probability a response body is cut mid-stream")
	cutAfter := fs.Int64("cut-after", 0, "bytes forwarded before a cut (0 = 64)")
	quiet := fs.Bool("quiet", false, "suppress stderr lifecycle lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse faultproxy -target url [-addr host:port] [-seed n] [-shed-rate p] [-error-rate p] [-latency-rate p -latency d] [-cut-rate p] [-cut-after bytes]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *target == "" {
		return errors.New("-target is required")
	}
	p := &faultinject.Proxy{
		Target: *target,
		T: &faultinject.Transport{
			S:         faultinject.NewSchedule(*seed),
			ErrorRate: *errorRate,
			ShedRate:  *shedRate, RetryAfterSecs: *retryAfter,
			LatencyRate: *latencyRate, Latency: *latency,
			CutRate: *cutRate, CutAfter: *cutAfter,
		},
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse faultproxy: %s -> %s (seed %d, shed %.2f, error %.2f, cut %.2f)\n",
			ln.Addr(), *target, *seed, *shedRate, *errorRate, *cutRate)
	}
	return serveUntilSignal(ln, p, nil)
}
