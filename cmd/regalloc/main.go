// Command regalloc runs one register-allocation algorithm on one kernel and
// prints the allocation, its decision trace and the resulting hardware
// metrics.
//
// Usage:
//
//	regalloc -kernel fir -algo CPA-RA [-regs 64] [-trace] [-verify] [-ports 2]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/sched"
)

func main() {
	var (
		kernel = flag.String("kernel", "figure1", "kernel name: figure1, fir, decfir, imi, mat, pat, bic")
		algo   = flag.String("algo", "CPA-RA", "allocator: FR-RA, PR-RA, CPA-RA, KS-RA")
		regs   = flag.Int("regs", 0, "register budget (0 = kernel default)")
		ports  = flag.Int("ports", 1, "RAM ports per block")
		trace  = flag.Bool("trace", false, "print the allocator's decision trace")
		verify = flag.Bool("verify", false, "machine-check the storage plan against the reference interpreter")
	)
	flag.Parse()
	if err := run(os.Stdout, *kernel, *algo, *regs, *ports, *trace, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "regalloc:", err)
		os.Exit(1)
	}
}

// run estimates kernel under allocator algo and prints the report to w.
func run(w io.Writer, kernel, algo string, regs, ports int, trace, verify bool) error {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	alg, err := core.ByName(algo)
	if err != nil {
		return err
	}
	opt := hls.DefaultOptions()
	opt.Rmax = regs
	opt.Sched.PortsPerRAM = ports
	d, err := hls.Estimate(k, alg, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "kernel %s — %s\n", k.Name, k.Description)
	fmt.Fprint(w, k.Nest.String())
	fmt.Fprintf(w, "\nallocation (%s, budget %d):\n", alg.Name(), d.Allocation.Rmax)
	for _, e := range d.Plan.Order() {
		state := "RAM"
		switch {
		case e.FullyReplaced():
			state = "registers (full reuse)"
		case e.Coverage > 0:
			state = fmt.Sprintf("registers for %d of %d window elements", e.Coverage, e.Info.Nu)
		}
		fmt.Fprintf(w, "  %-22s ν=%-5d β=%-4d → %s\n", e.Info.Key(), e.Info.Nu, e.Beta, state)
	}
	if trace {
		fmt.Fprintln(w, "\ndecision trace:")
		for _, line := range d.Allocation.Trace() {
			fmt.Fprintln(w, "  "+line)
		}
	}
	fmt.Fprintf(w, "\nmetrics: %d registers | %d cycles (Tmem %d, overhead %d) | clock %.1f ns | %.1f µs | %d slices (%.1f%%) | %d BRAMs\n",
		d.Registers, d.Cycles, d.MemCycles, d.Sim.OverheadCycles, d.ClockNs, d.TimeUs, d.Slices, d.SliceUtil, d.RAMs)
	loads, stores, err := sched.Transfers(k.Nest, d.Plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "transfer traffic: %d loads, %d stores (overlapped)\n", loads, stores)
	if verify {
		if err := d.Verify(1); err != nil {
			return fmt.Errorf("semantics check FAILED: %w", err)
		}
		fmt.Fprintln(w, "semantics check: storage plan matches the reference interpreter ✓")
	}
	return nil
}
