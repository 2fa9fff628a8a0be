package dse

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// SchedVariant is one named scheduler configuration of the exploration's
// scheduler axis (RAM latency, RAM port count, latency model).
type SchedVariant struct {
	Name   string
	Config sched.Config
}

// DefaultSchedVariant returns the single-ported default latency model.
func DefaultSchedVariant() SchedVariant {
	return SchedVariant{Name: "default", Config: sched.DefaultConfig()}
}

// Space declares the axes of a design-space exploration; the design points
// are the full cross-product. Axes left empty fall back to a singleton
// default (kernel's own budget, the paper's XCV1000, the default
// scheduler), so a Space needs only the axes the caller cares about.
type Space struct {
	Kernels    []kernels.Kernel
	Allocators []core.Allocator
	Budgets    []int // register budgets; 0 = the kernel's own Rmax
	Devices    []fpga.Device
	Scheds     []SchedVariant
	// Portfolio collapses the allocator axis: instead of one design point
	// per allocator, each (kernel, budget, device, sched) combination is a
	// single point that runs every allocator and keeps the best design by
	// the objective order (time, slices, registers, allocator order). The
	// winning allocator is recorded in the design's Algorithm field. All
	// allocators of a point share the exploration's simulation caches.
	Portfolio bool
	// PortfolioAll is the portfolio diagnostic mode: every member
	// allocator's design is carried on the point's Result (allocator list
	// order) and the reporters emit the members' metrics next to the
	// winner's, making the win margins visible per point. Implies
	// Portfolio; a local diagnostic — multi-shard partitions and the shard
	// file encoding (shard.Run) reject it, since shard rows carry winners
	// only and would silently drop the members.
	PortfolioAll bool
}

// Portfolio is the pseudo-allocator occupying the allocator coordinate of
// portfolio-mode design points. The engine resolves it: every member is
// scheduled once per unit and sched variant (hls.Analysis.SchedulePortfolio)
// and the winner is picked per device (RealizePortfolio); its Allocate
// method exists only to satisfy core.Allocator and always errors.
type Portfolio struct {
	Allocators []core.Allocator
}

// Name implements core.Allocator.
func (Portfolio) Name() string { return "portfolio" }

// Allocate implements core.Allocator; a portfolio cannot be resolved at
// allocation level (picking the winner needs the simulated design).
func (Portfolio) Allocate(*core.Problem) (*core.Allocation, error) {
	return nil, fmt.Errorf("dse: the portfolio allocator is resolved per design point by the engine")
}

// DefaultSpace is the full stock exploration: the six Table-1 kernels ×
// the four allocators × four register budgets × the Virtex and Virtex-II
// targets under the default scheduler — 192 design points.
func DefaultSpace() Space {
	return Space{
		Kernels:    kernels.All(),
		Allocators: core.All(),
		Budgets:    []int{16, 32, 64, 128},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
		Scheds:     []SchedVariant{DefaultSchedVariant()},
	}
}

// maxPoints bounds the size of every space the engine resolves or
// explores. Specs arrive as outside bytes (serve's POST body, shard and
// task headers, fleet executors, -space files) and exploration allocates
// per point — 184 B per Point, plus index state — so a few hundred KB of
// spec could otherwise ask for terabytes. 2^20 points is about 200 MB of
// index state; the stock space has 192 points and README's widest 1,728.
const maxPoints = 1 << 20

// checkSize rejects a cross-product of more than maxPoints design points,
// given the length of each axis (allocators: the coordinates Points
// enumerates, 1 in portfolio mode). It never forms a product that could
// overflow.
func checkSize(kernels, allocators, budgets, devices, scheds int) error {
	n := 1
	for _, axis := range []int{kernels, allocators, budgets, devices, scheds} {
		if axis > 0 && n > maxPoints/axis {
			return fmt.Errorf("dse: space of %d kernels × %d allocators × %d budgets × %d devices × %d scheds exceeds %d design points",
				kernels, allocators, budgets, devices, scheds, maxPoints)
		}
		n *= axis
	}
	return nil
}

// normalized fills singleton defaults for empty optional axes and
// validates the required ones and the space's size.
func (sp Space) normalized() (Space, error) {
	if len(sp.Kernels) == 0 {
		return sp, fmt.Errorf("dse: space has no kernels")
	}
	if len(sp.Allocators) == 0 {
		return sp, fmt.Errorf("dse: space has no allocators")
	}
	seen := map[string]bool{}
	for _, k := range sp.Kernels {
		if seen[k.Name] {
			return sp, fmt.Errorf("dse: kernel %q appears twice on the kernel axis", k.Name)
		}
		seen[k.Name] = true
	}
	if sp.PortfolioAll {
		sp.Portfolio = true
	}
	if len(sp.Budgets) == 0 {
		sp.Budgets = []int{0}
	}
	for _, b := range sp.Budgets {
		if b < 0 {
			return sp, fmt.Errorf("dse: negative register budget %d", b)
		}
	}
	if len(sp.Devices) == 0 {
		sp.Devices = []fpga.Device{fpga.XCV1000()}
	}
	if len(sp.Scheds) == 0 {
		sp.Scheds = []SchedVariant{DefaultSchedVariant()}
	}
	if err := checkSize(len(sp.Kernels), len(sp.allocAxis()), len(sp.Budgets), len(sp.Devices), len(sp.Scheds)); err != nil {
		return sp, err
	}
	return sp, nil
}

// Size returns the number of design points of the cross-product. Like
// Points, it takes the axes as declared: an empty axis yields zero points
// (normalization is what fills singleton defaults). In portfolio mode the
// allocator axis contributes a single coordinate however many allocators
// compete.
func (sp Space) Size() int {
	return len(sp.Kernels) * len(sp.allocAxis()) * len(sp.Budgets) * len(sp.Devices) * len(sp.Scheds)
}

// allocAxis returns the allocator coordinates Points enumerates: the
// declared allocators, or the single portfolio pseudo-allocator wrapping
// them in portfolio mode.
func (sp Space) allocAxis() []core.Allocator {
	if !sp.Portfolio || len(sp.Allocators) == 0 {
		return sp.Allocators
	}
	return []core.Allocator{Portfolio{Allocators: sp.Allocators}}
}

// Point is one design point: one coordinate along every axis. Index is the
// point's position in the space's canonical row-major order (kernel
// outermost, scheduler variant innermost) — results are always reported in
// this order, whatever the evaluation schedule.
type Point struct {
	Index     int
	Kernel    kernels.Kernel
	Allocator core.Allocator
	Budget    int // 0 = the kernel's own Rmax
	Device    fpga.Device
	Sched     SchedVariant
}

// EffectiveBudget resolves the 0-means-kernel-default budget convention.
func (p Point) EffectiveBudget() int {
	if p.Budget > 0 {
		return p.Budget
	}
	return p.Kernel.Rmax
}

// Options assembles the estimator options for this point.
func (p Point) Options() hls.Options {
	return hls.Options{Device: p.Device, Sched: p.Sched.Config, Rmax: p.Budget}
}

// ID renders the point's coordinates as a stable slash-joined identifier,
// e.g. "fir/CPA-RA/r64/XCV1000-BG560/default".
func (p Point) ID() string {
	return fmt.Sprintf("%s/%s/r%d/%s/%s",
		p.Kernel.Name, p.Allocator.Name(), p.EffectiveBudget(), p.Device.Name, p.Sched.Name)
}

// Points enumerates the cross-product in canonical row-major order. The
// space must already be normalized (Explore normalizes; tests may call
// this on a fully-specified space directly).
func (sp Space) Points() []Point {
	pts := make([]Point, 0, sp.Size())
	for _, k := range sp.Kernels {
		for _, alg := range sp.allocAxis() {
			for _, b := range sp.Budgets {
				for _, dev := range sp.Devices {
					for _, sv := range sp.Scheds {
						pts = append(pts, Point{
							Index:     len(pts),
							Kernel:    k,
							Allocator: alg,
							Budget:    b,
							Device:    dev,
							Sched:     sv,
						})
					}
				}
			}
		}
	}
	return pts
}
