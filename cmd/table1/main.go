// Command table1 regenerates the paper's Table 1: for each kernel, the
// three register-allocation designs (v1 FR-RA, v2 PR-RA, v3 CPA-RA) with
// registers, cycle counts, clock period, wall-clock time, slices and RAM
// blocks, followed by the §5 aggregate percentages and a check of the
// paper's qualitative claims.
//
// Usage:
//
//	table1 [-kernel fir] [-ports 1] [-regs 64] [-summary]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/hls"
	"repro/internal/kernels"
)

func main() {
	var (
		kernel  = flag.String("kernel", "", "single kernel (default: all six)")
		ports   = flag.Int("ports", 1, "RAM ports per block")
		regs    = flag.Int("regs", 0, "register budget override (0 = 64)")
		summary = flag.Bool("summary", true, "print aggregates and paper-shape check")
	)
	flag.Parse()
	if err := run(os.Stdout, *kernel, *ports, *regs, *summary); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, kernel string, ports, regs int, summary bool) error {
	opt := hls.DefaultOptions()
	opt.Sched.PortsPerRAM = ports
	opt.Rmax = regs
	var rows []experiments.Row
	var err error
	if kernel == "" {
		rows, err = experiments.Table1(opt)
	} else {
		var k kernels.Kernel
		k, err = kernels.ByName(kernel)
		if err == nil {
			rows, err = experiments.KernelRows(k, opt)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.Format(rows))
	if summary && kernel == "" {
		fmt.Fprintln(w)
		fmt.Fprintln(w, experiments.Aggregates(rows))
		if violations := experiments.CheckPaperShape(rows); len(violations) > 0 {
			fmt.Fprintln(w, "\npaper-shape VIOLATIONS:")
			for _, v := range violations {
				fmt.Fprintln(w, "  -", v)
			}
			return fmt.Errorf("%d paper-shape violations", len(violations))
		}
		fmt.Fprintln(w, "paper-shape check: all qualitative claims of §5 hold ✓")
	}
	return nil
}
