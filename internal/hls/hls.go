// Package hls is the high-level-synthesis estimator standing in for the
// paper's Monet + Synplify + ISE tool flow: given a kernel and a register
// allocation algorithm, it produces the hardware design metrics Table 1
// reports — total execution cycles, achievable clock period, wall-clock
// time, slice count/occupancy and RAM blocks.
package hls

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

// Options parameterizes an estimation run.
type Options struct {
	Device fpga.Device
	Sched  sched.Config
	// Rmax overrides the kernel's register budget when positive.
	Rmax int
	// Obs, when non-nil, receives per-stage timings: the allocator run
	// ("alloc/<algorithm>", one stage per portfolio member) and the storage
	// plan build ("plan"). The allocator also runs under the pprof labels
	// (kernel, "alloc") and then hands the goroutine back to (kernel,
	// "point"), the labels a sweep evaluates each design point under. The
	// front-end analysis and the simulation are timed by their owners (the
	// sweep engine and the SimFunc). Trace additionally records per-point
	// spans; Point is the global design point index those spans carry
	// (sweeps set it; standalone estimates leave it 0). Both nil by
	// default — the disabled path adds no allocations and no clock reads.
	Obs   *obs.Metrics
	Trace *obs.Tracer
	Point int
}

// obsOn reports whether any observability sink is attached.
func (o Options) obsOn() bool { return o.Obs != nil || o.Trace != nil }

// allocStages maps an allocator name to its metrics stage name,
// "alloc/<name>", built once per name: the names are a handful of
// registry constants, and a schedule should not concatenate one.
var allocStages sync.Map

func allocStage(name string) string {
	if s, ok := allocStages.Load(name); ok {
		return s.(string)
	}
	s, _ := allocStages.LoadOrStore(name, "alloc/"+name)
	return s.(string)
}

// DefaultOptions targets the XCV1000 with single-ported RAM blocks under
// the default latency model.
func DefaultOptions() Options {
	return Options{Device: fpga.XCV1000(), Sched: sched.DefaultConfig()}
}

// Design is one synthesized design point (one kernel × one allocator).
type Design struct {
	Kernel     string
	Algorithm  string
	Allocation *core.Allocation
	Plan       *scalarrepl.Plan
	// Allocation, Plan and Sim are read-only after construction. The
	// designs Realize builds from one Schedule share all three. Plan is
	// also shared by every design of the analysis with β=ν, and Sim with
	// other Designs when a sweep's simulation cache deduplicated the plan.
	Sim *sched.Result

	Registers int     // Σβ
	Cycles    int     // total execution cycles (loop + transfers)
	MemCycles int     // Tmem share of the loop
	ClockNs   float64 // achievable clock period
	TimeUs    float64 // wall-clock execution time
	Slices    int
	SliceUtil float64 // percentage of device slices
	RAMs      int

	nest *ir.Nest
}

// Analysis is the memoized front-end of the estimator: the reuse summary
// and body data-flow graph of one kernel. Both structures are read-only
// after construction, so one Analysis can back any number of design-point
// estimates — across budgets, devices, latency models and allocators, and
// from concurrent goroutines — without re-running the analysis that
// Estimate would otherwise rebuild per point.
type Analysis struct {
	Kernel kernels.Kernel
	Infos  []*reuse.Info
	Graph  *dfg.Graph

	// kernelStats holds the allocation-independent area/clock model
	// inputs — operator counts, datapath width, loop depth and the
	// RAM-mapped arrays — shared read-only by every design of the kernel.
	kernelStats fpga.DesignStats

	// full is the storage plan for β=ν, built by the first schedule whose
	// allocation grants it (plan) and shared by every later one.
	fullOnce sync.Once
	full     *scalarrepl.Plan
	fullErr  error
}

// plan returns the storage plan for beta: the kernel's one full plan when
// β=ν everywhere, a new one otherwise. Plans are read-only once built, so
// any number of designs may carry the full plan.
func (an *Analysis) plan(beta []int) (*scalarrepl.Plan, error) {
	for i, inf := range an.Infos {
		if beta[i] != inf.Nu {
			return scalarrepl.NewPlan(an.Kernel.Nest, an.Infos, beta)
		}
	}
	an.fullOnce.Do(func() { an.full, an.fullErr = scalarrepl.NewPlan(an.Kernel.Nest, an.Infos, beta) })
	return an.full, an.fullErr
}

// Analyze runs the kernel front-end once: reuse analysis, DFG build and
// the kernel-constant design statistics.
func Analyze(k kernels.Kernel) (*Analysis, error) {
	infos, err := reuse.Analyze(k.Nest)
	if err != nil {
		return nil, fmt.Errorf("hls: %s: %w", k.Name, err)
	}
	g, err := dfg.Build(k.Nest)
	if err != nil {
		return nil, fmt.Errorf("hls: %s: %w", k.Name, err)
	}
	return &Analysis{Kernel: k, Infos: infos, Graph: g, kernelStats: kernelStats(k.Nest)}, nil
}

// Estimate runs the full pipeline: reuse analysis → allocation → storage
// plan → cycle simulation → area/clock models. Callers evaluating many
// design points of one kernel should Analyze once and use
// Analysis.Estimate instead, which skips the front-end.
func Estimate(k kernels.Kernel, alg core.Allocator, opt Options) (*Design, error) {
	a, err := Analyze(k)
	if err != nil {
		return nil, err
	}
	return a.Estimate(alg, opt)
}

// SimCtx identifies the design point on whose behalf a simulation runs,
// plus its observability sinks — threaded to SimFunc so caches can
// attribute the call (which kernel, which global point index) and record
// stage timings and trace spans against it.
type SimCtx struct {
	Kernel string
	Point  int
	Obs    *obs.Metrics
	Trace  *obs.Tracer
}

// SimFunc runs one cycle simulation on a prebuilt front-end. Sweep engines
// interpose a cross-design-point cache here (see internal/dse): many points
// converge to identical plans and can share one simulation.
type SimFunc func(ctx SimCtx, nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg sched.Config) (*sched.Result, error)

// Estimate evaluates one design point on the cached front-end: Schedule,
// then Realize on opt.Device. It is safe to call concurrently from
// multiple goroutines.
func (an *Analysis) Estimate(alg core.Allocator, opt Options) (*Design, error) {
	s, err := an.Schedule(alg, opt, nil)
	if err != nil {
		return nil, err
	}
	return an.Realize(&s, opt.Device)
}

// Schedule is the device-independent part of one design point: the
// allocation, its storage plan and their cycle simulation. It depends on
// the kernel, the allocator, the register budget and the scheduler
// configuration, and on nothing a device sets, so one Schedule backs the
// design of every device (Realize). It is read-only once built, and a
// small value: callers hold it by value, so it costs no allocation of its
// own.
type Schedule struct {
	algorithm string
	alloc     *core.Allocation
	plan      *scalarrepl.Plan
	// sim may be shared with other Schedules when a sweep's simulation
	// cache deduplicated the plan.
	sim *sched.Result
	// stats holds the device models' inputs: the kernel's statistics
	// completed with this schedule's register file and class count.
	// slices and periodNs are the models' device-independent outputs
	// (DesignStats.Slices and PeriodNs), computed once for every device
	// the schedule is realized on.
	stats    fpga.DesignStats
	slices   int
	periodNs float64
}

// Schedule runs the device-independent half of an estimate: allocation,
// storage plan and simulation. It reads every option except Device. sim,
// when non-nil, replaces (or memoizes) sched.SimulateGraph; the memoized
// body DFG is threaded through in either case, so no design point
// rebuilds it. Safe to call concurrently.
func (an *Analysis) Schedule(alg core.Allocator, opt Options, sim SimFunc) (Schedule, error) {
	if sim == nil {
		sim = func(_ SimCtx, nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg sched.Config) (*sched.Result, error) {
			return sched.SimulateGraph(nest, g, plan, cfg)
		}
	}
	k := an.Kernel
	prob, err := core.NewProblemFrom(k.Nest, an.Infos, an.Graph, an.Budget(opt), opt.Sched.Lat)
	if err != nil {
		return Schedule{}, fmt.Errorf("hls: %s: %w", k.Name, err)
	}
	var alloc *core.Allocation
	if opt.obsOn() {
		// One metrics stage per allocator name, so a portfolio point's
		// member costs read apart; the pprof label stays coarse ("alloc")
		// to keep profile label cardinality down. Schedule runs within
		// its design point's stage, so the allocator hands the goroutine
		// back to the point's labels and the plan and simulation stay
		// labelled.
		sp := obs.Begin(opt.Obs, opt.Trace, opt.Point, k.Name, allocStage(alg.Name()))
		opt.Obs.Do(func() { alloc, err = alg.Allocate(prob) }, k.Name, "alloc", "point")
		sp.End("")
	} else {
		alloc, err = alg.Allocate(prob)
	}
	if err != nil {
		return Schedule{}, fmt.Errorf("hls: %s/%s: %w", k.Name, alg.Name(), err)
	}
	var plan *scalarrepl.Plan
	if opt.obsOn() {
		sp := obs.Begin(opt.Obs, opt.Trace, opt.Point, k.Name, "plan")
		plan, err = an.plan(alloc.Beta)
		sp.End("")
	} else {
		plan, err = an.plan(alloc.Beta)
	}
	if err != nil {
		return Schedule{}, fmt.Errorf("hls: %s/%s: %w", k.Name, alg.Name(), err)
	}
	res, err := sim(SimCtx{Kernel: k.Name, Point: opt.Point, Obs: opt.Obs, Trace: opt.Trace},
		k.Nest, an.Graph, plan, opt.Sched)
	if err != nil {
		return Schedule{}, fmt.Errorf("hls: %s/%s: %w", k.Name, alg.Name(), err)
	}
	stats := an.designStats(alloc, res)
	return Schedule{
		algorithm: alg.Name(),
		alloc:     alloc,
		plan:      plan,
		sim:       res,
		stats:     stats,
		slices:    stats.Slices(),
		periodNs:  stats.PeriodNs(),
	}, nil
}

// Budget returns the register budget Schedule allocates under: opt.Rmax
// when positive, the analyzed kernel's Rmax otherwise.
func (an *Analysis) Budget(opt Options) int {
	if opt.Rmax > 0 {
		return opt.Rmax
	}
	return an.Kernel.Rmax
}

// Realize applies one device to a schedule of this analysis: the
// capacity check (Fit, which also counts the block RAMs), the clock
// period's scaling and rounding, and the slice occupancy. The slice count
// and the baseline period come with the schedule. Safe to call
// concurrently, on one schedule from many goroutines too.
func (an *Analysis) Realize(s *Schedule, dev fpga.Device) (*Design, error) {
	rams, err := dev.Fit(s.slices, s.stats)
	if err != nil {
		return nil, fmt.Errorf("hls: %s/%s: %w", an.Kernel.Name, s.algorithm, err)
	}
	d := &Design{
		Kernel:     an.Kernel.Name,
		Algorithm:  s.algorithm,
		Allocation: s.alloc,
		Plan:       s.plan,
		Sim:        s.sim,
		Registers:  s.alloc.Total(),
		Cycles:     s.sim.TotalCycles,
		MemCycles:  s.sim.MemCycles,
		ClockNs:    dev.ClockNs(s.periodNs),
		Slices:     s.slices,
		SliceUtil:  dev.Utilization(s.slices),
		RAMs:       rams,
		nest:       an.Kernel.Nest,
	}
	d.TimeUs = float64(d.Cycles) * d.ClockNs / 1000.0
	return d, nil
}

// Member is one portfolio allocator's schedule, or the error that stopped
// it before any device was applied: whether that error fails the point
// depends on the other members and, through Fit, on the device
// (RealizePortfolio).
type Member struct {
	Schedule Schedule
	Err      error
}

// RealizePortfolio realizes every member schedule on dev and returns the
// best design by the objective order: lowest wall-clock time, then fewest
// slices, then fewest registers, then the earlier member in list order —
// a deterministic total order, so portfolio sweeps are reproducible
// whatever the evaluation schedule. It also returns every member's
// design, in list order (failed members absent), the winner included:
// `dse -portfolio-all` reports them next to the winner so the win margins
// are visible. Per-member failures (infeasible budget, device capacity)
// fail the point only when every member fails, with their deduplicated
// errors in list order. The sweep engine schedules the members (one
// Schedule per allocator, through its caches) and realizes them here.
func (an *Analysis) RealizePortfolio(ms []Member, dev fpga.Device) (*Design, []*Design, error) {
	if len(ms) == 0 {
		return nil, nil, fmt.Errorf("hls: %s: empty allocator portfolio", an.Kernel.Name)
	}
	var best *Design
	var members []*Design
	var msgs []string
	seen := map[string]bool{}
	for i := range ms {
		err := ms[i].Err
		var d *Design
		if err == nil {
			d, err = an.Realize(&ms[i].Schedule, dev)
		}
		if err != nil {
			// Deduplicated, "; "-joined single line: the error lands in
			// line-oriented reports (table rows, CSV fields), and members
			// usually fail identically (e.g. one infeasible budget).
			if msg := err.Error(); !seen[msg] {
				seen[msg] = true
				msgs = append(msgs, msg)
			}
			continue
		}
		members = append(members, d)
		if best == nil || betterDesign(d, best) {
			best = d
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("hls: %s: every portfolio allocator failed: %s", an.Kernel.Name, strings.Join(msgs, "; "))
	}
	return best, members, nil
}

// betterDesign reports whether a strictly precedes b in the portfolio
// objective order (time, slices, registers); ties keep the incumbent.
func betterDesign(a, b *Design) bool {
	if a.TimeUs != b.TimeUs {
		return a.TimeUs < b.TimeUs
	}
	if a.Slices != b.Slices {
		return a.Slices < b.Slices
	}
	return a.Registers < b.Registers
}

// kernelStats derives the allocation-independent area/clock model inputs
// of a nest.
func kernelStats(nest *ir.Nest) fpga.DesignStats {
	s := fpga.DesignStats{
		OpCounts: map[ir.OpKind]int{},
		Depth:    nest.Depth(),
	}
	for _, st := range nest.Body {
		ir.WalkExpr(st.RHS, func(e ir.Expr) {
			if b, ok := e.(*ir.BinOp); ok {
				s.OpCounts[b.Op]++
			}
		})
	}
	readArrays := map[string]bool{}
	for _, u := range nest.RefUses() {
		if !u.IsWrite {
			readArrays[u.Ref.Array.Name] = true
		}
	}
	for _, a := range nest.Arrays() {
		if a.ElemBits > s.Width {
			s.Width = a.ElemBits
		}
		// Arrays the kernel reads keep an on-chip RAM image, whatever the
		// register allocation (inputs arrive through RAM). Write-only
		// outputs stream off-chip at the same access latency and occupy no
		// block RAM.
		if readArrays[a.Name] {
			s.RAMArrays = append(s.RAMArrays, a.Bits())
		}
	}
	return s
}

// designStats completes the kernel's statistics with one design's
// register file and iteration-class count. The result shares the
// kernel's OpCounts and RAMArrays, which the device models only read.
func (an *Analysis) designStats(alloc *core.Allocation, sim *sched.Result) fpga.DesignStats {
	s := an.kernelStats
	s.Classes = len(sim.Classes)
	for i, inf := range an.Infos {
		b := alloc.Beta[i]
		s.Registers += b
		s.RegisterBits += b * inf.Group.Ref.Array.ElemBits
	}
	return s
}

// Verify machine-checks the design's storage plan against the reference
// interpreter on deterministic random inputs.
func (d *Design) Verify(seed int64) error {
	_, err := sched.VerifyPlan(d.nest, d.Plan, seed)
	return err
}

// Speedup returns the wall-clock speedup of this design over a baseline.
func (d *Design) Speedup(base *Design) float64 {
	if d.TimeUs == 0 {
		return 0
	}
	return base.TimeUs / d.TimeUs
}

// CycleReductionPct returns the percent reduction in total cycles relative
// to a baseline design (positive = fewer cycles).
func (d *Design) CycleReductionPct(base *Design) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * float64(base.Cycles-d.Cycles) / float64(base.Cycles)
}
