// Quickstart: describe a loop kernel in the textual DSL, run the paper's
// critical-path-aware register allocator against a 64-register budget, and
// inspect the resulting storage plan and hardware estimates.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/reuse"
)

func main() {
	// The paper's Figure 1 running example, written in the kernel DSL.
	nest, err := dsl.Parse(`
kernel quickstart;
array a[30]:8;
array b[30][20]:8;
array c[20]:8;
array d[2][30]:8;
array e[2][20][30]:8;
for i = 0..2 {
  for j = 0..20 {
    for k = 0..30 {
      d[i][k] = a[k] * b[k][j];
      e[i][j][k] = c[j] * d[i][k];
    }
  }
}
`)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: reuse analysis — how many registers would full scalar
	// replacement of each array reference need?
	infos, err := reuse.Analyze(nest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reuse analysis:")
	for _, inf := range infos {
		fmt.Printf("  %s\n", inf)
	}

	// Step 2: allocate 64 registers with the critical-path-aware algorithm.
	prob, err := core.NewProblem(nest, 64, dfg.DefaultLatencies())
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", alloc)
	fmt.Println("\ndecision trace:")
	for _, line := range alloc.Trace() {
		fmt.Println("  " + line)
	}

	// Step 3: estimate the hardware design on a Virtex XCV1000.
	k := kernels.Kernel{Name: "quickstart", Nest: nest, Rmax: 64, Description: "quickstart"}
	design, err := hls.Estimate(k, core.CPARA{}, hls.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhardware estimate: %d cycles (Tmem %d) | %.1f ns clock | %.1f µs | %d slices | %d BRAMs\n",
		design.Cycles, design.MemCycles, design.ClockNs, design.TimeUs, design.Slices, design.RAMs)

	// Step 4: machine-check that the storage plan computes the same values
	// as the plain sequential interpretation.
	if err := design.Verify(42); err != nil {
		log.Fatal(err)
	}
	fmt.Println("semantics verified against the reference interpreter ✓")
}
