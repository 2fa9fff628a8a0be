// Command dse runs a concurrent design-space exploration over the kernel
// suite: the cross-product of kernels × allocators × register budgets ×
// devices × scheduler configurations is evaluated on a worker pool and the
// results stream in point order — through a bounded window of dispatched
// units, so memory stays bounded however large the space — into a table,
// CSV or JSON report with per-kernel Pareto frontiers. Output is
// byte-identical whatever the worker count.
//
// Simulation work is deduplicated at two levels within a process:
// identical plans share one simulation (the plan cache), and distinct
// plans share per-class schedules (the in-memory simulation store, see
// internal/simcache). Nothing is stored across processes: a class schedule
// and a front-end analysis are cheaper to compute than to read back, so
// every process computes the ones it needs. -portfolio
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
// warm shared simcache (internal/serve).
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
//	dse -shard 0/3 > s0.jsonl                         # one shard per process/host...
//	dse -shard 1/3 > s1.jsonl
//	dse -shard 2/3 > s2.jsonl
//	dse merge -format csv s0.jsonl s1.jsonl s2.jsonl  # ...merged back, metrics summed
//
//	dse serve -addr :8080 &                           # estimation service
//	curl -d @spec.json 'localhost:8080/v1/explore?format=csv'
//
//	dse -space spec.json -points 3,17,40 > t.jsonl    # explicit points, task encoding
//	dse fleet -local 3 -dir /tmp/sweep                # fault-tolerant multi-executor sweep
//	dse fleet -remote http://a:8080,http://b:8080     # ...across serve endpoints
//	dse faultproxy -target http://localhost:8080 -shed-rate 0.2 -cut-rate 0.1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/simcache"
)

func main() {
	os.Exit(command(os.Args[1:], os.Stdout, os.Stderr))
}

// command runs one dse command line (without the program name) and
// returns its exit status: 1, with the error on stderr, if it fails.
// serve and faultproxy run until a signal, on the process's own streams.
func command(args []string, stdout, stderr io.Writer) int {
	name, cmd := "dse", run
	if len(args) > 0 {
		if sub, ok := map[string]func(args []string, stdout, stderr io.Writer) error{
			"merge": runMerge, "fleet": runFleet,
			"serve":      func(args []string, _, _ io.Writer) error { return runServe(args) },
			"faultproxy": func(args []string, _, _ io.Writer) error { return runFaultProxy(args) },
		}[args[0]]; ok {
			name, cmd, args = "dse "+args[0], sub, args[1:]
		}
	}
	if err := cmd(args, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

// run is the sweep itself, `dse [flags]`.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	cfg := cliConfig{space: addSpaceFlags(fs, "load the space from this spec JSON file instead of the axis flags (mutually exclusive with them)")}
	fs.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.format, "format", "table", "output format: table, csv or json")
	fs.StringVar(&cfg.shardSpec, "shard", "", "evaluate one shard i/n of the space and emit the portable shard encoding instead of a report")
	fs.StringVar(&cfg.pointsSpec, "points", "", "evaluate exactly these comma-separated global point indices and emit the portable task encoding (the `dse fleet` worker shape)")
	fs.BoolVar(&cfg.strict, "strict", false, "exit non-zero when any design point fails")
	fs.BoolVar(&cfg.portfolio, "portfolio", false, "run every allocator per point and keep the best design by (time, slices, registers)")
	fs.BoolVar(&cfg.pfAll, "portfolio-all", false, "with -portfolio (implied), additionally report every member allocator's metrics per point (CSV role column, JSON portfolio array, indented table rows)")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress the stderr stats summary")
	fs.StringVar(&cfg.metricsPath, "metrics", "", "write the per-stage metrics snapshot as JSON to this file")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve the live metrics snapshot as JSON over HTTP on this address (GET /metrics)")
	fs.DurationVar(&cfg.linger, "metrics-linger", 0, "with -metrics-addr, keep serving the final snapshot this long after the sweep before exiting")
	fs.StringVar(&cfg.tracePath, "trace", "", "write bounded per-point stage spans as JSONL to this file")
	fs.StringVar(&cfg.execTracePath, "exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { cfg.formatSet = cfg.formatSet || f.Name == "format" })
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	err := sweep(cfg, stdout, stderr)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if perr := writeHeapProfile(*memProf); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// cliConfig is the parsed command line.
type cliConfig struct {
	space                    *spaceFlags
	workers                  int
	format, shardSpec        string
	pointsSpec               string
	formatSet, strict        bool
	portfolio, pfAll, quiet  bool
	metricsPath, metricsAddr string
	linger                   time.Duration
	tracePath, execTracePath string
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

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // up-to-date allocation data
	return pprof.WriteHeapProfile(f)
}

func sweep(cfg cliConfig, stdout, stderr io.Writer) error {
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
		tracer = obs.NewTracer(0)
	}
	engine := dse.Engine{Workers: cfg.workers, Obs: metrics, Trace: tracer}

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
			fmt.Fprintf(stderr, "dse: serving metrics on http://%s/metrics\n", srv.Addr())
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
			fmt.Fprintln(stderr, "dse: note: -format is ignored with -shard; shards always emit the portable encoding (render with `dse merge`)")
		}
		st, err = shard.Run(engine, sp, plan, stdout)
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
			fmt.Fprintln(stderr, "dse: note: -format is ignored with -points; explicit point-sets always emit the portable task encoding (assemble with `dse fleet` or `dse merge` tooling)")
		}
		out := bufio.NewWriter(stdout)
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
		out := bufio.NewWriter(stdout)
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
		fmt.Fprintf(stderr, "%s: %d points in %v (%d failed, %d unique simulations%s)\n%s: stages: %s\n",
			prefix, st.Points, wall.Round(time.Millisecond), st.Failed, st.UniqueSims, cacheNote(st.Cache),
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

// cacheNote renders the per-stage hit counters (front-end analyses, entry
// fragments, class schedules, whole plans) as hits/misses per stage.
func cacheNote(s simcache.Snapshot) string {
	if s.Zero() {
		return ""
	}
	return "; " + s.String()
}
