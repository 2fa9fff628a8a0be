// Package repro's top-level benchmark harness regenerates every evaluation
// artifact of the paper:
//
//   - BenchmarkFigure2/*   — the Figure 2(c) walk-through (one benchmark
//     per allocation algorithm; Tmem per outer iteration is reported as a
//     custom metric next to the paper's 1800/1560/1184).
//   - BenchmarkTable1/*    — one benchmark per Table 1 row (kernel ×
//     version), reporting cycles, Tmem, clock, wall-clock microseconds,
//     slices and RAM blocks as custom metrics.
//   - BenchmarkAblation*   — the design-choice ablations DESIGN.md calls
//     out: RAM port count, RAM access latency, register budget, and the
//     knapsack baseline against CPA-RA.
//   - BenchmarkAllocator*  — the cost of the allocation algorithms
//     themselves (the paper argues CPA-RA's exponential worst case is
//     irrelevant on real loop bodies; these put numbers on that).
//   - BenchmarkAnalyze, BenchmarkPlan, BenchmarkSimulate, ... — one
//     benchmark per pipeline layer, with allocation counts, up to the
//     served request (BenchmarkServeRequest).
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// reportDesign attaches the Table 1 columns as benchmark metrics.
func reportDesign(b *testing.B, d *hls.Design) {
	b.ReportMetric(float64(d.Cycles), "cycles")
	b.ReportMetric(float64(d.MemCycles), "Tmem")
	b.ReportMetric(d.ClockNs, "clock_ns")
	b.ReportMetric(d.TimeUs, "time_us")
	b.ReportMetric(float64(d.Slices), "slices")
	b.ReportMetric(float64(d.RAMs), "BRAMs")
	b.ReportMetric(float64(d.Registers), "registers")
}

// BenchmarkFigure2 regenerates the worked example for each algorithm.
func BenchmarkFigure2(b *testing.B) {
	k := kernels.Figure1()
	for _, alg := range experiments.Versions() {
		b.Run(alg.Name(), func(b *testing.B) {
			var d *hls.Design
			var err error
			for i := 0; i < b.N; i++ {
				d, err = hls.Estimate(k, alg, hls.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Sim.MemPerOuter(k.Nest)), "Tmem_per_outer")
			reportDesign(b, d)
		})
	}
}

// BenchmarkTable1 regenerates every row of Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, k := range kernels.All() {
		for vi, alg := range experiments.Versions() {
			name := fmt.Sprintf("%s_v%d_%s", k.Name, vi+1, alg.Name())
			b.Run(name, func(b *testing.B) {
				var d *hls.Design
				var err error
				for i := 0; i < b.N; i++ {
					d, err = hls.Estimate(k, alg, hls.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
				}
				reportDesign(b, d)
			})
		}
	}
}

// BenchmarkAblationPorts measures the effect of dual-ported block RAMs on
// the CPA-RA designs (the concurrency the paper's Virtex target offers).
func BenchmarkAblationPorts(b *testing.B) {
	for _, ports := range []int{1, 2} {
		b.Run(fmt.Sprintf("fir_ports%d", ports), func(b *testing.B) {
			opt := hls.DefaultOptions()
			opt.Sched.PortsPerRAM = ports
			var d *hls.Design
			var err error
			for i := 0; i < b.N; i++ {
				d, err = hls.Estimate(kernels.FIR(), core.CPARA{}, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportDesign(b, d)
		})
	}
}

// BenchmarkAblationMemLatency sweeps the RAM access latency: the slower the
// RAM, the larger CPA-RA's advantage over FR-RA.
func BenchmarkAblationMemLatency(b *testing.B) {
	for _, mem := range []int{1, 2, 4} {
		for _, alg := range []core.Allocator{core.FRRA{}, core.CPARA{}} {
			b.Run(fmt.Sprintf("figure1_mem%d_%s", mem, alg.Name()), func(b *testing.B) {
				opt := hls.DefaultOptions()
				opt.Sched.Lat.Mem = mem
				var d *hls.Design
				var err error
				for i := 0; i < b.N; i++ {
					d, err = hls.Estimate(kernels.Figure1(), alg, opt)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportDesign(b, d)
			})
		}
	}
}

// BenchmarkAblationRmax sweeps the register budget for CPA-RA on the
// running example (the knapsack size axis).
func BenchmarkAblationRmax(b *testing.B) {
	for _, rmax := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("figure1_rmax%d", rmax), func(b *testing.B) {
			opt := hls.DefaultOptions()
			opt.Rmax = rmax
			var d *hls.Design
			var err error
			for i := 0; i < b.N; i++ {
				d, err = hls.Estimate(kernels.Figure1(), core.CPARA{}, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportDesign(b, d)
		})
	}
}

// BenchmarkAblationKnapsack pits the §3 optimal knapsack baseline against
// CPA-RA on every kernel: eliminating the most accesses is not the same as
// minimizing completion time.
func BenchmarkAblationKnapsack(b *testing.B) {
	for _, k := range kernels.All() {
		for _, alg := range []core.Allocator{core.Knapsack{}, core.CPARA{}} {
			b.Run(fmt.Sprintf("%s_%s", k.Name, alg.Name()), func(b *testing.B) {
				var d *hls.Design
				var err error
				for i := 0; i < b.N; i++ {
					d, err = hls.Estimate(k, alg, hls.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
				}
				reportDesign(b, d)
			})
		}
	}
}

// BenchmarkAllocatorOnly isolates the allocation algorithms' own cost
// (no simulation): the practical answer to the worst-case-exponential
// concern about cut enumeration. The saturated cases run at a budget of
// 1024, past the 681 registers that fit every reference of the example,
// where each allocator's answer is a closed form.
func BenchmarkAllocatorOnly(b *testing.B) {
	k := kernels.Figure1()
	for _, c := range []struct {
		prefix string
		rmax   int
	}{{"", 64}, {"saturated/", 1024}} {
		prob, err := core.NewProblem(k.Nest, c.rmax, dfg.DefaultLatencies())
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range core.All() {
			b.Run(c.prefix+alg.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := alg.Allocate(prob); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnalyze measures the cold front-end (reuse analysis + DFG
// construction) on every Table-1 kernel. The reuse summary is computed in
// closed form over the affine references — per-level cost is O(depth) AP
// merging, independent of trip counts — so this tracks nest *structure*,
// not iteration-space size; a regression here usually means something
// fell back to the enumeration oracle.
func BenchmarkAnalyze(b *testing.B) {
	for _, k := range kernels.All() {
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hls.Analyze(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate measures a cold cycle simulation (no shared cache) —
// analytic class weights plus one schedule per class — on every Table-1
// kernel under its CPA-RA plan, with allocation counts. This is the
// per-point DSE hot path.
func BenchmarkSimulate(b *testing.B) {
	for _, k := range kernels.All() {
		prob, plan := cpaPlan(b, k)
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sched.SimulateGraph(k.Nest, prob.Graph, plan, sched.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassLen measures the two per-class costs the class store
// rests on (DESIGN.md §22). compute list-schedules every class of the
// Table-1 kernels' CPA-RA plans, full and memory-level, as a store miss
// does, and reports one class's share as ns/class; hit is one warm lookup
// in a memory store, under the key the simulator renders for a FIR class:
// the prefix of graph, latency and port fingerprints, then the class's
// signature.
func BenchmarkClassLen(b *testing.B) {
	type class struct {
		g   *dfg.Graph
		hit []bool
	}
	var classes []class
	var key string
	cfg := sched.DefaultConfig()
	for _, k := range kernels.All() {
		prob, plan := cpaPlan(b, k)
		inner := k.Nest.Loops[k.Nest.Depth()-1]
		seen := map[string]bool{}
		for v := inner.Lo; v < inner.Hi; v += inner.Step {
			hit := make([]bool, len(plan.Order()))
			sig := make([]byte, len(hit))
			for i, e := range plan.Order() {
				hit[i], sig[i] = e.HitInner(v), '0'
				if hit[i] {
					sig[i] = '1'
				}
			}
			if !seen[string(sig)] {
				seen[string(sig)] = true
				classes = append(classes, class{prob.Graph, hit})
			}
			if k.Name == "fir" && key == "" {
				key = fmt.Sprintf("%s|%s|P%d|%s", prob.Graph.Fingerprint(), cfg.Lat.Fingerprint(), cfg.PortsPerRAM, sig)
			}
		}
	}
	b.Run("compute", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, c := range classes {
				for _, zeroOps := range []bool{false, true} {
					if _, err := sched.ScheduleClass(c.g, c.hit, cfg, zeroOps); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(classes)), "ns/class")
		b.ReportMetric(float64(len(classes)), "classes")
	})
	b.Run("hit", func(b *testing.B) {
		store := simcache.New()
		compute := func() (simcache.ClassLen, error) { return simcache.ClassLen{Iter: 4, Mem: 2}, nil }
		if _, err := store.ClassLen(key, compute); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := store.ClassLen(key, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransfers measures sched.Transfers, the transfer replay run on
// demand (one call per regalloc run; no sweep calls it), on every Table-1
// kernel under its CPA-RA plan. Each covered entry walks one reuse region
// in full, so the cost tracks the region's iteration points: BIC's is the
// largest.
func BenchmarkTransfers(b *testing.B) {
	for _, k := range kernels.All() {
		_, plan := cpaPlan(b, k)
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Transfers(k.Nest, plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cpaPlan builds the kernel's problem at its own budget and its CPA-RA
// storage plan.
func cpaPlan(b *testing.B, k kernels.Kernel) (*core.Problem, *scalarrepl.Plan) {
	b.Helper()
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		b.Fatal(err)
	}
	return prob, plan
}

// BenchmarkPlan measures the plan layer: building the storage plan and
// its cache-key fingerprint, per Table-1 kernel over the four allocators'
// β vectors at the kernel's budget. Every per-kernel fact the plan needs
// (reference keys, write-first flags, flat index functions) comes
// precomputed from the analysis, so the cost is per-entry arithmetic.
func BenchmarkPlan(b *testing.B) {
	for _, k := range kernels.All() {
		prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
		if err != nil {
			b.Fatal(err)
		}
		var betas [][]int
		for _, alg := range core.All() {
			alloc, err := alg.Allocate(prob)
			if err != nil {
				b.Fatal(err)
			}
			betas = append(betas, alloc.Beta)
		}
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, beta := range betas {
					plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, beta)
					if err != nil {
						b.Fatal(err)
					}
					_ = plan.Fingerprint()
				}
			}
		})
	}
}

// BenchmarkExplore measures the full stock design-space sweep (DefaultSpace,
// 192 points) through the concurrent engine, buffered into a ResultSet.
// The sub-benchmark keeps its "cached" name so runs from before the
// cache-free engine was retired still compare.
func BenchmarkExplore(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		var sims int
		for i := 0; i < b.N; i++ {
			rs, err := dse.Engine{}.Explore(dse.DefaultSpace())
			if err != nil {
				b.Fatal(err)
			}
			if n := len(rs.Failed()); n > 0 {
				b.Fatalf("%d points failed", n)
			}
			sims = rs.UniqueSims
		}
		b.ReportMetric(float64(sims), "unique_sims")
	})
}

// BenchmarkExploreStream measures the benchmark's stock-cold op: the
// stock sweep (DefaultSpace, 192 points) on a fresh one-worker engine,
// streamed to the CSV reporter with the pareto column into a fresh
// buffer. Its allocs/op and B/op are that workload's allocation per op.
func BenchmarkExploreStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := (dse.Engine{Workers: 1}).ExploreStream(dse.DefaultSpace(), dse.CSVReporter{Pareto: true}.Stream(&buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreRandomNests measures the random-nests benchmark's op on
// its first input, set 0 at seed 1: 48 generated nests × the four
// allocators × budgets {16, 64} × XC2V6000 (384 points), swept on a fresh
// one-worker engine and streamed to the CSV reporter with the pareto
// column. Most of its (nest, budget) pairs are saturated: every reference
// fits, and the allocators take their closed form.
func BenchmarkExploreRandomNests(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := irgen.Config{MaxDepth: 3, MaxTrip: 24, MaxArrays: 5, MaxStmts: 4, InteriorZeroProb: 0.35}
	ks := make([]kernels.Kernel, 48)
	for i := range ks {
		ks[i] = kernels.Kernel{Name: fmt.Sprintf("rand%02d", i), Nest: irgen.Nest(rng, cfg), Rmax: kernels.DefaultRmax}
	}
	sp := dse.Space{
		Kernels:    ks,
		Allocators: core.All(),
		Budgets:    []int{16, 64},
		Devices:    []fpga.Device{fpga.XC2V6000()},
		Scheds:     []dse.SchedVariant{dse.DefaultSchedVariant()},
	}
	b.ReportAllocs()
	for b.Loop() {
		var buf bytes.Buffer
		if _, err := (dse.Engine{Workers: 1}).ExploreStream(sp, dse.CSVReporter{Pareto: true}.Stream(&buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreInstrumented measures the stock sweep on a warm
// one-worker engine (store and analysis memo filled by an earlier sweep,
// as `dse serve` runs a repeated request) with and without metrics; the
// gap in allocs/op is what instrumentation costs a sweep, built once per
// exploration rather than per point.
func BenchmarkExploreInstrumented(b *testing.B) {
	store, ac := simcache.New(), dse.NewAnalysisCache()
	sp := dse.DefaultSpace()
	if _, err := (dse.Engine{Workers: 1, SimCache: store, Analyses: ac}).Explore(sp); err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		obs  bool
	}{{"plain", false}, {"obs", true}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := dse.Engine{Workers: 1, SimCache: store, Analyses: ac}
				if bench.obs {
					e.Obs = obs.New()
				}
				if _, err := e.Explore(sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeRequest measures the serve request layer: POSTs of the
// stock spec to an in-process serve.Server (one engine worker per
// request) behind httptest, once one request has warmed its store and
// analysis memo, as `dse serve` answers a repeated sweep. The csv
// request returns the CLI's CSV bytes (checked once, before timing) and
// the ndjson request streams the shard encoding; the client reads each
// body through. Allocation counts cover client and server alike.
func BenchmarkServeRequest(b *testing.B) {
	sp := dse.DefaultSpace()
	spec, err := json.Marshal(dse.Spec(sp))
	if err != nil {
		b.Fatal(err)
	}
	store, m := simcache.New(), obs.New()
	store.SetObs(m)
	srv, err := serve.New(store, m, serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(b *testing.B, query string, body io.Writer) {
		resp, err := http.Post(ts.URL+"/v1/explore"+query, "application/json", bytes.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(body, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s: %s, %v", query, resp.Status, err)
		}
	}
	var got, want bytes.Buffer
	post(b, "?format=csv", &got)
	rs, err := dse.Engine{}.Explore(sp)
	if err != nil {
		b.Fatal(err)
	}
	if err := (dse.CSVReporter{Pareto: true}).Report(&want, rs); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		b.Fatal("served CSV differs from the local sweep's")
	}
	for _, bench := range []struct{ name, query string }{{"csv", "?format=csv"}, {"ndjson", ""}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(b, bench.query, io.Discard)
			}
		})
	}
}

// BenchmarkSpaceSpecResolve measures resolving the stock space's spec
// into a Space, the first step of every served request, shard merge and
// fleet task, once the process has parsed its kernels: registry lookups
// over the shared kernels, no parse.
func BenchmarkSpaceSpecResolve(b *testing.B) {
	spec := dse.Spec(dse.DefaultSpace())
	if _, err := spec.Space(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Space(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamReport measures the streaming reporters on the stock
// 192-point result set, with allocation counts: the buffered reporters
// are thin wrappers over the same streaming cores, so allocs/op here is
// the per-sweep rendering cost, and it must scale with the in-flight
// window and the Pareto frontier — not with the number of points held —
// as spaces grow.
func BenchmarkStreamReport(b *testing.B) {
	rs, err := dse.Engine{}.Explore(dse.DefaultSpace())
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		rep  dse.Reporter
	}{
		{"table", dse.TableReporter{}},
		{"csv", dse.CSVReporter{Pareto: true}},
		{"csv_nopareto", dse.CSVReporter{}},
		{"json", dse.JSONReporter{Indent: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bench.rep.Report(io.Discard, rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalSim measures the simulator on single-β plan
// perturbations of the largest kernel (BIC, ~208k iteration points): after
// a base plan warms the class-schedule store, each perturbed plan
// differing in one reference's β schedules only the classes no earlier
// plan produced and reads the rest from the store. The cold/incremental
// gap is the class-schedule reuse.
func BenchmarkIncrementalSim(b *testing.B) {
	k := kernels.BIC()
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		b.Fatal(err)
	}
	// A ring of single-β perturbations of the CPA-RA plan: each plan
	// differs from the base in exactly one reference's register count.
	var plans []*scalarrepl.Plan
	for i := range prob.Infos {
		for _, delta := range []int{-1, 1} {
			beta := slices.Clone(alloc.Beta)
			if beta[i]+delta < 1 {
				continue
			}
			beta[i] += delta
			p, err := scalarrepl.NewPlan(k.Nest, prob.Infos, beta)
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, p)
		}
	}
	base, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sched.DefaultConfig()

	b.Run("cold", func(b *testing.B) {
		// No cache: every perturbed plan schedules all its classes.
		sim := &sched.Simulator{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.SimulateGraph(k.Nest, prob.Graph, plans[i%len(plans)], cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		// Shared store, warmed by the base plan and the first lap over the
		// perturbation ring; steady state schedules nothing.
		sim := &sched.Simulator{Cache: simcache.New()}
		if _, err := sim.SimulateGraph(k.Nest, prob.Graph, base, cfg); err != nil {
			b.Fatal(err)
		}
		for _, p := range plans {
			if _, err := sim.SimulateGraph(k.Nest, prob.Graph, p, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.SimulateGraph(k.Nest, prob.Graph, plans[i%len(plans)], cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorOnly isolates the cycle simulator on the largest
// iteration space (BIC, ~208k points).
func BenchmarkSimulatorOnly(b *testing.B) {
	k := kernels.BIC()
	prob, err := core.NewProblem(k.Nest, 64, dfg.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := newPlan(k, prob, alloc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Simulate(k.Nest, plan, sched.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// newPlan is a small helper bridging the benchmark to the pipeline pieces.
func newPlan(k kernels.Kernel, prob *core.Problem, alloc *core.Allocation) (*scalarrepl.Plan, error) {
	return scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
}

// BenchmarkRTLExecution runs the cycle-accurate FSMD simulation of the
// running example (values, ports and states — the heaviest verification
// path).
func BenchmarkRTLExecution(b *testing.B) {
	k := kernels.Figure1()
	prob, err := core.NewProblem(k.Nest, 64, dfg.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		b.Fatal(err)
	}
	fsmd, err := rtl.Build(k.Nest, plan, sched.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := ir.NewStore()
		store.RandomizeInputs(k.Nest, 1)
		stats, err := fsmd.Simulate(store)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(stats.Cycles), "fsm_cycles")
		}
	}
}

// BenchmarkCodegen generates and executes the scalar-replaced program for
// every allocator on the running example.
func BenchmarkCodegen(b *testing.B) {
	k := kernels.Figure1()
	prob, err := core.NewProblem(k.Nest, 64, dfg.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range core.All() {
		alloc, err := alg.Allocate(prob)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := codegen.Verify(k.Nest, plan, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMissCurve measures the LRU reuse-distance oracle on the FIR
// window reference.
func BenchmarkMissCurve(b *testing.B) {
	n := kernels.FIR().Nest
	for i := 0; i < b.N; i++ {
		if _, err := trace.LRUMisses(n, "x[i + k]", 32); err != nil {
			b.Fatal(err)
		}
	}
}

// stockShard returns the results shard 0/3 of the stock space owns (64
// of its 192 points) and that shard's file as `dse -shard 0/3` writes it,
// trailer metrics included.
func stockShard(b *testing.B) ([]dse.Result, []byte) {
	sp := dse.DefaultSpace()
	p := shard.Plan{Index: 0, Count: 3}
	rs, err := dse.Engine{}.Explore(sp)
	if err != nil {
		b.Fatal(err)
	}
	var owned []dse.Result
	for _, r := range rs.Results {
		if p.Owns(r.Point.Index, dse.Spec(sp).UnitSize()) {
			owned = append(owned, r)
		}
	}
	var file bytes.Buffer
	if _, err := shard.Run(dse.Engine{Obs: obs.New()}, sp, p, &file); err != nil {
		b.Fatal(err)
	}
	return owned, file.Bytes()
}

// BenchmarkShardWrite measures the shard encoder on the rows and trailer
// of the stock space's 64-row shard 0/3; the header, written once per
// file, is left out.
func BenchmarkShardWrite(b *testing.B) {
	owned, _ := stockShard(b)
	p := shard.Plan{Index: 0, Count: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := shard.NewWriter(io.Discard, p)
		for _, r := range owned {
			if err := w.Point(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.End(dse.StreamStats{Points: len(owned)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSalvage measures the shard reader on the stock space's 64-row
// shard 0/3 as the CLI writes it.
func BenchmarkSalvage(b *testing.B) {
	_, file := stockShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := shard.Salvage(bytes.NewReader(file))
		if err != nil {
			b.Fatal(err)
		}
		if !s.Complete || s.Rows() != 64 {
			b.Fatalf("salvaged %d rows, stop %v", s.Rows(), s.Stop)
		}
	}
}

// BenchmarkShardedSweep measures the stock space swept as 2 and 3 shards,
// each on a fresh one-worker engine writing its shard file as a `dse
// -shard i/n` process does, and reports the shards' summed unique_sims.
// Shards own whole (kernel, allocator, budget) units, so together they
// schedule each unit once; their simulation caches are their own, so a
// plan two shards share is simulated by both.
func BenchmarkShardedSweep(b *testing.B) {
	sp := dse.DefaultSpace()
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sims := 0
			for i := 0; i < b.N; i++ {
				sims = 0
				for s := range n {
					st, err := shard.Run(dse.Engine{Workers: 1}, sp, shard.Plan{Index: s, Count: n}, io.Discard)
					if err != nil {
						b.Fatal(err)
					}
					sims += st.UniqueSims
				}
			}
			b.ReportMetric(float64(sims), "unique_sims")
		})
	}
}
