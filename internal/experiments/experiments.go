// Package experiments regenerates the paper's evaluation artifacts: the
// Figure 2 walk-through (DFG, critical graph, cuts, per-algorithm
// allocations and Tmem) and Table 1 (six kernels × three allocation
// algorithms with registers, cycles, clock, wall-clock time, area and RAM
// blocks), plus the aggregate percentages quoted in §5 and shape checks
// that compare our measurements against the paper's qualitative claims.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/kernels"
)

// Versions maps the paper's design versions to allocators: v1=FR-RA,
// v2=PR-RA, v3=CPA-RA.
func Versions() []core.Allocator {
	return []core.Allocator{core.FRRA{}, core.PRRA{}, core.CPARA{}}
}

// Row is one line of Table 1.
type Row struct {
	Kernel       string
	Version      string // v1, v2, v3
	Algorithm    string
	RequiredRegs string // per-reference ν, e.g. "x:32 c:32 y:1"
	Distribution string // per-reference β
	TotalRegs    int
	Cycles       int
	CycleRedPct  float64 // reduction vs v1 (positive = fewer cycles)
	MemCycles    int
	ClockNs      float64
	TimeUs       float64
	Speedup      float64 // wall-clock speedup vs v1
	Slices       int
	SliceUtilPct float64
	RAMs         int
}

// Table1 generates the full table for the six kernels.
func Table1(opt hls.Options) ([]Row, error) {
	var rows []Row
	for _, k := range kernels.All() {
		kernelRows, err := KernelRows(k, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, kernelRows...)
	}
	return rows, nil
}

// KernelRows generates the three version rows for one kernel. The kernel
// front-end (reuse analysis + DFG) is built once and shared by the three
// version estimates.
func KernelRows(k kernels.Kernel, opt hls.Options) ([]Row, error) {
	an, err := hls.Analyze(k)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var rows []Row
	var base *hls.Design
	for vi, alg := range Versions() {
		d, err := an.Estimate(alg, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", k.Name, alg.Name(), err)
		}
		if vi == 0 {
			base = d
		}
		infos := d.Plan.Order()
		var req, dist []string
		for _, e := range infos {
			name := e.Info.Group.Ref.Array.Name
			req = append(req, fmt.Sprintf("%s:%d", name, e.Info.Nu))
			dist = append(dist, fmt.Sprintf("%s:%d", name, e.Beta))
		}
		rows = append(rows, Row{
			Kernel:       k.Name,
			Version:      fmt.Sprintf("v%d", vi+1),
			Algorithm:    alg.Name(),
			RequiredRegs: strings.Join(req, " "),
			Distribution: strings.Join(dist, " "),
			TotalRegs:    d.Registers,
			Cycles:       d.Cycles,
			CycleRedPct:  d.CycleReductionPct(base),
			MemCycles:    d.MemCycles,
			ClockNs:      d.ClockNs,
			TimeUs:       d.TimeUs,
			Speedup:      d.Speedup(base),
			Slices:       d.Slices,
			SliceUtilPct: d.SliceUtil,
			RAMs:         d.RAMs,
		})
	}
	return rows, nil
}

// Format renders rows in the paper's column layout.
func Format(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-4s %-7s %6s %10s %7s %8s %10s %8s %7s %6s %5s\n",
		"Kernel", "Ver", "Algo", "Regs", "Cycles", "Red%", "Tmem", "Clock(ns)", "Time(us)", "Speedup", "Slices", "RAMs")
	prev := ""
	for _, r := range rows {
		if prev != "" && prev != r.Kernel {
			b.WriteString(strings.Repeat("-", 100) + "\n")
		}
		prev = r.Kernel
		fmt.Fprintf(&b, "%-8s %-4s %-7s %6d %10d %6.1f%% %8d %10.1f %8.1f %6.2fx %6d %5d\n",
			r.Kernel, r.Version, r.Algorithm, r.TotalRegs, r.Cycles, r.CycleRedPct,
			r.MemCycles, r.ClockNs, r.TimeUs, r.Speedup, r.Slices, r.RAMs)
	}
	return b.String()
}

// Aggregate holds the §5 summary percentages.
type Aggregate struct {
	AvgCycleRedV2     float64 // paper: ~ +8%
	AvgCycleRedV3     float64 // paper: ~ +22%
	AvgTimeGainV2     float64 // paper: ~ -0.2% (break-even)
	AvgTimeGainV3     float64 // paper: double-digit gain
	AvgClockLossV3    float64 // paper: single-digit loss
	CycleGainV3OverV2 float64
	TimeGainV3OverV2  float64
}

// Aggregates computes the summary over a full Table1 row set.
func Aggregates(rows []Row) Aggregate {
	var a Aggregate
	byKernel := map[string][]Row{}
	var names []string
	for _, r := range rows {
		if _, ok := byKernel[r.Kernel]; !ok {
			names = append(names, r.Kernel)
		}
		byKernel[r.Kernel] = append(byKernel[r.Kernel], r)
	}
	sort.Strings(names)
	n := float64(len(names))
	for _, k := range names {
		v := byKernel[k]
		v1, v2, v3 := v[0], v[1], v[2]
		a.AvgCycleRedV2 += v2.CycleRedPct / n
		a.AvgCycleRedV3 += v3.CycleRedPct / n
		a.AvgTimeGainV2 += 100 * (v1.TimeUs - v2.TimeUs) / v1.TimeUs / n
		a.AvgTimeGainV3 += 100 * (v1.TimeUs - v3.TimeUs) / v1.TimeUs / n
		a.AvgClockLossV3 += 100 * (v3.ClockNs - v1.ClockNs) / v1.ClockNs / n
		a.CycleGainV3OverV2 += 100 * float64(v2.Cycles-v3.Cycles) / float64(v2.Cycles) / n
		a.TimeGainV3OverV2 += 100 * (v2.TimeUs - v3.TimeUs) / v2.TimeUs / n
	}
	return a
}

// String renders the aggregate in the paper's phrasing.
func (a Aggregate) String() string {
	return fmt.Sprintf(
		"avg cycle reduction: v2 %+.1f%%, v3 %+.1f%% | avg wall-clock gain: v2 %+.1f%%, v3 %+.1f%% | "+
			"avg v3 clock loss %.1f%% | v3 over v2: cycles %+.1f%%, time %+.1f%%",
		a.AvgCycleRedV2, a.AvgCycleRedV3, a.AvgTimeGainV2, a.AvgTimeGainV3,
		a.AvgClockLossV3, a.CycleGainV3OverV2, a.TimeGainV3OverV2)
}

// CheckPaperShape compares the measured table against the paper's
// qualitative claims and returns a list of violations (empty = the
// reproduction matches the published shape).
func CheckPaperShape(rows []Row) []string {
	var violations []string
	// Kernels in Table-1 row order (first appearance), so the violations
	// come out in the same order on every call.
	var order []string
	byKernel := map[string][]Row{}
	for _, r := range rows {
		if _, ok := byKernel[r.Kernel]; !ok {
			order = append(order, r.Kernel)
		}
		byKernel[r.Kernel] = append(byKernel[r.Kernel], r)
	}
	for _, k := range order {
		v := byKernel[k]
		if len(v) != 3 {
			violations = append(violations, fmt.Sprintf("%s: %d versions, want 3", k, len(v)))
			continue
		}
		v1, v2, v3 := v[0], v[1], v[2]
		if v3.Cycles > v1.Cycles {
			violations = append(violations, fmt.Sprintf("%s: v3 cycles %d exceed v1 %d", k, v3.Cycles, v1.Cycles))
		}
		if v3.MemCycles > v1.MemCycles {
			violations = append(violations, fmt.Sprintf("%s: v3 Tmem %d exceeds v1 %d", k, v3.MemCycles, v1.MemCycles))
		}
		if v2.TotalRegs < v1.TotalRegs {
			violations = append(violations, fmt.Sprintf("%s: v2 uses fewer registers (%d) than v1 (%d)", k, v2.TotalRegs, v1.TotalRegs))
		}
		for _, r := range v {
			if r.TotalRegs > kernels.DefaultRmax {
				violations = append(violations, fmt.Sprintf("%s %s: %d registers exceed the %d budget", k, r.Version, r.TotalRegs, kernels.DefaultRmax))
			}
		}
	}
	agg := Aggregates(rows)
	if agg.AvgCycleRedV3 <= agg.AvgCycleRedV2 {
		violations = append(violations, fmt.Sprintf("v3 avg cycle reduction %.1f%% not above v2 %.1f%%", agg.AvgCycleRedV3, agg.AvgCycleRedV2))
	}
	if agg.AvgCycleRedV3 <= 0 {
		violations = append(violations, "v3 shows no average cycle gain")
	}
	if agg.AvgTimeGainV3 <= 0 {
		violations = append(violations, "v3 shows no average wall-clock gain")
	}
	if agg.AvgTimeGainV3 <= agg.AvgTimeGainV2 {
		violations = append(violations, "v3 wall-clock gain does not beat v2")
	}
	if agg.AvgClockLossV3 < 0 || agg.AvgClockLossV3 > 15 {
		violations = append(violations, fmt.Sprintf("v3 clock loss %.1f%% outside the paper's mild-degradation band", agg.AvgClockLossV3))
	}
	return violations
}

// Figure2 reproduces the paper's worked example end to end.
type Figure2Result struct {
	Nest   string
	DFG    string
	CGRefs []string
	Cuts   []string
	PerAlg []Figure2Alloc
}

// Figure2Alloc is one algorithm's outcome on the running example.
type Figure2Alloc struct {
	Algorithm    string
	Distribution string
	TotalRegs    int
	TmemPerOuter int // paper prints 1800 / 1560 / 1184
}

// Figure2 runs the walk-through with the paper's 64-register budget.
func Figure2(opt hls.Options) (*Figure2Result, error) {
	k := kernels.Figure1()
	an, err := hls.Analyze(k)
	if err != nil {
		return nil, err
	}
	g := an.Graph
	lat := opt.Sched.Lat.NodeLat(nil)
	cg, err := g.CriticalGraph(lat)
	if err != nil {
		return nil, err
	}
	cuts, err := cg.Cuts(func(*dfg.Node) bool { return true })
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{
		Nest:   k.Nest.String(),
		DFG:    g.String(),
		CGRefs: cg.Graph.RefKeys(),
	}
	for _, c := range cuts {
		res.Cuts = append(res.Cuts, c.String())
	}
	for _, alg := range Versions() {
		d, err := an.Estimate(alg, opt)
		if err != nil {
			return nil, err
		}
		var dist []string
		for _, e := range d.Plan.Order() {
			dist = append(dist, fmt.Sprintf("β(%s)=%d", e.Info.Group.Ref.Array.Name, e.Beta))
		}
		res.PerAlg = append(res.PerAlg, Figure2Alloc{
			Algorithm:    alg.Name(),
			Distribution: strings.Join(dist, " "),
			TotalRegs:    d.Registers,
			TmemPerOuter: d.Sim.MemPerOuter(k.Nest),
		})
	}
	return res, nil
}
