package dse

import (
	"repro/internal/hls"
	"repro/internal/kernels"
)

// The Pareto objectives, all minimized: wall-clock execution time, slice
// area, and register count. A design dominates another when it is no worse
// on every objective and strictly better on at least one.
func dominates(a, b *hls.Design) bool {
	if a.TimeUs > b.TimeUs || a.Slices > b.Slices || a.Registers > b.Registers {
		return false
	}
	return a.TimeUs < b.TimeUs || a.Slices < b.Slices || a.Registers < b.Registers
}

// KernelFrontier is the Pareto frontier of one kernel's design points.
type KernelFrontier struct {
	Kernel string
	Points []Result
}

// frontierTracker maintains per-kernel Pareto frontiers incrementally as
// results stream in: a new design is dropped if some kept design
// dominates it, and evicts the kept designs it dominates. A dominated
// point can never re-enter (dominance is transitive: whatever removed its
// dominator dominates it too), so after the last result the kept sets are
// exactly the kernel's undominated successful results — ties kept (equal
// objectives are mutually non-dominating) and in point order, since
// results arrive in point order and evictions preserve relative order.
// Failed results are never kept and never dominate. Memory is
// O(frontier), not O(points), and each result costs O(frontier): this is
// what lets the streaming reporters render frontier summaries without
// buffering the result set.
type frontierTracker struct {
	byKernel map[string][]Result
}

func newFrontierTracker() *frontierTracker {
	return &frontierTracker{byKernel: map[string][]Result{}}
}

func (ft *frontierTracker) add(r Result) {
	if !r.Ok() {
		return
	}
	kept := ft.byKernel[r.Point.Kernel.Name]
	for _, q := range kept {
		if dominates(q.Design, r.Design) {
			return
		}
	}
	out := kept[:0]
	for _, q := range kept {
		if !dominates(r.Design, q.Design) {
			out = append(out, q)
		}
	}
	ft.byKernel[r.Point.Kernel.Name] = append(out, r)
}

// frontiers returns one frontier per kernel, in the given axis order.
// Domination is only ever evaluated within a kernel: design points of
// different kernels compute different things.
func (ft *frontierTracker) frontiers(ks []kernels.Kernel) []KernelFrontier {
	out := make([]KernelFrontier, 0, len(ks))
	for _, k := range ks {
		out = append(out, KernelFrontier{Kernel: k.Name, Points: ft.byKernel[k.Name]})
	}
	return out
}
