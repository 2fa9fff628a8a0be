package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/golden"
	"repro/internal/kernels"
)

// TestAllocationGolden pins the text every allocator produces — the
// rendered β vector and the full decision trace — for the Figure 1 example
// and the six Table-1 kernels at budgets 16, 64 and the kernel's own
// default. Infeasible budgets pin their error instead.
func TestAllocationGolden(t *testing.T) {
	var b strings.Builder
	for _, k := range append([]kernels.Kernel{kernels.Figure1()}, kernels.All()...) {
		seen := map[int]bool{}
		for _, rmax := range []int{16, 64, k.Rmax} {
			if seen[rmax] {
				continue
			}
			seen[rmax] = true
			for _, alg := range All() {
				fmt.Fprintf(&b, "== %s %s rmax=%d\n", k.Name, alg.Name(), rmax)
				p, err := NewProblem(k.Nest, rmax, dfg.DefaultLatencies())
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				a, err := alg.Allocate(p)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				b.WriteString(a.String() + "\n")
				for _, line := range a.Trace() {
					b.WriteString("  " + line + "\n")
				}
			}
		}
	}
	golden.Check(t, filepath.Join("testdata", "allocations.golden"), []byte(b.String()))
}
