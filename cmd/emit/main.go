// Command emit lowers a kernel under an allocation to the code-generation
// artifacts of the paper's flow: the scalar-replaced C-like listing
// (peeled transfers, predicated register windows), the FSMD state table,
// or behavioral VHDL.
//
// Usage:
//
//	emit -kernel figure1 -algo CPA-RA -format c|fsm|vhdl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/kernels"
	"repro/internal/rtl"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/vhdl"
)

func main() {
	var (
		kernel = flag.String("kernel", "figure1", "kernel name")
		algo   = flag.String("algo", "CPA-RA", "allocator")
		format = flag.String("format", "c", "output: c (scalar-replaced listing), fsm (state table), vhdl")
		regs   = flag.Int("regs", 0, "register budget (0 = kernel default)")
	)
	flag.Parse()
	if err := run(os.Stdout, *kernel, *algo, *format, *regs); err != nil {
		fmt.Fprintln(os.Stderr, "emit:", err)
		os.Exit(1)
	}
	if *format == "c" {
		fmt.Fprintln(os.Stderr, "// generated code verified against the reference interpreter")
	}
}

// run lowers kernel under allocator algo and writes the format's listing
// to w.
func run(w io.Writer, kernel, algo, format string, regs int) error {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	alg, err := core.ByName(algo)
	if err != nil {
		return err
	}
	rmax := k.Rmax
	if regs > 0 {
		rmax = regs
	}
	prob, err := core.NewProblem(k.Nest, rmax, dfg.DefaultLatencies())
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
	switch format {
	case "c":
		prog, err := codegen.Generate(k.Nest, plan)
		if err != nil {
			return err
		}
		if _, err := codegen.Verify(k.Nest, plan, 1); err != nil {
			return err
		}
		fmt.Fprint(w, prog.String())
	case "fsm", "vhdl":
		f, err := rtl.Build(k.Nest, plan, sched.DefaultConfig())
		if err != nil {
			return err
		}
		if format == "fsm" {
			fmt.Fprint(w, f.String())
		} else {
			fmt.Fprint(w, vhdl.Emit(f, k.Name))
		}
	default:
		return fmt.Errorf("unknown format %q (want c, fsm or vhdl)", format)
	}
	return nil
}
