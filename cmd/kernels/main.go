// Command kernels lists the benchmark suite with its reuse analysis, or
// dumps one kernel's DSL source.
//
// Usage:
//
//	kernels            # table of kernels, references, ν, reuse levels
//	kernels -dump fir  # print the kernel's DSL source
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dsl"
	"repro/internal/kernels"
	"repro/internal/reuse"
)

func main() {
	dump := flag.String("dump", "", "dump one kernel's DSL source")
	flag.Parse()
	if err := run(os.Stdout, *dump); err != nil {
		fmt.Fprintln(os.Stderr, "kernels:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, dump string) error {
	if dump != "" {
		k, err := kernels.ByName(dump)
		if err != nil {
			return err
		}
		fmt.Fprint(w, dsl.Format(k.Nest))
		return nil
	}
	all := append([]kernels.Kernel{kernels.Figure1()}, kernels.All()...)
	for _, k := range all {
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %s\n", k.Name, k.Description)
		fmt.Fprintf(w, "         %d iterations, budget %d, full replacement needs %d registers\n",
			k.Nest.IterationCount(), k.Rmax, reuse.TotalFullReplacementRegisters(infos))
		for _, inf := range infos {
			fmt.Fprintf(w, "           %s\n", inf)
		}
	}
	return nil
}
