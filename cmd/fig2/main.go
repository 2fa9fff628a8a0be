// Command fig2 reproduces the paper's Figure 2 walk-through on the running
// example: the data-flow graph, the critical graph and its cuts, and the
// register distribution plus memory-cycle count each allocation algorithm
// produces under the 64-register budget.
//
//repro:deterministic-output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hls"
)

func main() {
	stage := flag.String("stage", "all", "what to print: dfg, cg, alloc, all")
	flag.Parse()
	if err := run(os.Stdout, *stage); err != nil {
		fmt.Fprintln(os.Stderr, "fig2:", err)
		os.Exit(1)
	}
}

// run prints the walk-through sections stage selects to w.
func run(w io.Writer, stage string) error {
	res, err := experiments.Figure2(hls.DefaultOptions())
	if err != nil {
		return err
	}
	if stage == "all" || stage == "dfg" {
		fmt.Fprintln(w, "— Figure 1: example code —")
		fmt.Fprint(w, res.Nest)
		fmt.Fprintln(w, "\n— Figure 2(a): data-flow graph —")
		fmt.Fprint(w, res.DFG)
	}
	if stage == "all" || stage == "cg" {
		fmt.Fprintln(w, "\n— Figure 2(b): critical graph —")
		fmt.Fprintf(w, "references on the critical paths: %s\n", strings.Join(res.CGRefs, ", "))
		fmt.Fprintf(w, "cuts: %s   (paper: {{a,b}, {d}, {e}})\n", strings.Join(res.Cuts, " "))
	}
	if stage == "all" || stage == "alloc" {
		fmt.Fprintln(w, "\n— Figure 2(c): allocations with 64 registers —")
		paper := map[string]string{"FR-RA": "1,800", "PR-RA": "1,560", "CPA-RA": "1,184"}
		for _, pa := range res.PerAlg {
			fmt.Fprintf(w, "%-7s %s  (Σβ=%d)\n", pa.Algorithm, pa.Distribution, pa.TotalRegs)
			fmt.Fprintf(w, "        Tmem = %d cycles per outer iteration (paper: %s)\n",
				pa.TmemPerOuter, paper[pa.Algorithm])
		}
	}
	return nil
}
