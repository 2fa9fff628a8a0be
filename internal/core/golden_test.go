package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

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
	checkGolden(t, "allocations.golden", b.String())
}
