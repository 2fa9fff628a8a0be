// Command verify runs the full verification tower for one kernel and one
// allocator: the reference interpreter, the associative functional
// simulation, the generated scalar-replaced program and the cycle-accurate
// FSMD must all produce the same memory image, and the FSMD's executed
// cycle count must match the analytic scheduler.
//
// Usage:
//
//	verify -kernel fir -algo CPA-RA [-seed 7]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/rtl"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

func main() {
	var (
		kernel = flag.String("kernel", "figure1", "kernel name")
		algo   = flag.String("algo", "CPA-RA", "allocator")
		seed   = flag.Int64("seed", 7, "input randomization seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *kernel, *algo, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "verify: FAILED:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, kernel, algo string, seed int64) error {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	alg, err := core.ByName(algo)
	if err != nil {
		return err
	}
	cfg := sched.DefaultConfig()
	// One front-end pass (reuse analysis + DFG) feeds both the allocation
	// problem and the cycle simulation, like cmd/dse.
	an, err := hls.Analyze(k)
	if err != nil {
		return err
	}
	prob, err := core.NewProblemFrom(k.Nest, an.Infos, an.Graph, k.Rmax, cfg.Lat)
	if err != nil {
		return err
	}
	alloc, err := alg.Allocate(prob)
	if err != nil {
		return err
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "kernel %s, %s, Σβ=%d\n", k.Name, alg.Name(), alloc.Total())

	golden := ir.NewStore()
	golden.RandomizeInputs(k.Nest, seed)
	inputs := golden.Clone()
	if _, err := ir.Interp(k.Nest, golden); err != nil {
		return err
	}
	fmt.Fprintln(w, "  [1/4] reference interpreter: done (oracle)")

	fsim := inputs.Clone()
	stats, err := sched.RunFuncSim(k.Nest, plan, fsim)
	if err != nil {
		return err
	}
	if eq, diff := golden.Equal(fsim); !eq {
		return fmt.Errorf("functional simulation diverged: %s", diff)
	}
	fmt.Fprintf(w, "  [2/4] functional simulation: %d register hits, %d RAM reads, %d RAM writes ✓\n",
		stats.RegisterHits, stats.RAMReads, stats.RAMWrites)

	prog, err := codegen.Generate(k.Nest, plan)
	if err != nil {
		return err
	}
	gen := inputs.Clone()
	gstats, err := prog.Run(gen)
	if err != nil {
		return err
	}
	if eq, diff := golden.Equal(gen); !eq {
		return fmt.Errorf("generated code diverged: %s", diff)
	}
	fmt.Fprintf(w, "  [3/4] generated code: %d fills, %d drains ✓\n", gstats.PrologueLoads, gstats.EpilogueStores)

	res, err := sched.SimulateGraph(k.Nest, an.Graph, plan, cfg)
	if err != nil {
		return err
	}
	fsmd, err := rtl.Build(k.Nest, plan, cfg)
	if err != nil {
		return err
	}
	hw := inputs.Clone()
	rstats, err := fsmd.Simulate(hw)
	if err != nil {
		return err
	}
	if eq, diff := golden.Equal(hw); !eq {
		return fmt.Errorf("FSMD execution diverged: %s", diff)
	}
	if rstats.Cycles != res.LoopCycles {
		return fmt.Errorf("FSMD executed %d cycles, scheduler predicted %d", rstats.Cycles, res.LoopCycles)
	}
	fmt.Fprintf(w, "  [4/4] FSMD: %d cycles over %d iterations, matches the scheduler exactly ✓\n",
		rstats.Cycles, rstats.Iterations)
	fmt.Fprintln(w, "verify: all executors agree ✓")
	return nil
}
