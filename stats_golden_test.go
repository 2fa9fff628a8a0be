package repro

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/rtl"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

// TestTowerStatsGolden pins every executor's full statistics on every
// kernel × allocator at its default budget, inputs seeded 7 (cmd/verify's
// default): the functional simulation's FuncSimStats, the generated
// code's RunStats and the FSMD's SimStats with its class counts. Each
// executor must also reproduce the reference memory image. The cases run
// as parallel subtests; their blocks are joined in case order.
func TestTowerStatsGolden(t *testing.T) {
	type tcase struct {
		k   kernels.Kernel
		alg core.Allocator
	}
	var cases []tcase
	for _, k := range append([]kernels.Kernel{kernels.Figure1()}, kernels.All()...) {
		for _, alg := range core.All() {
			cases = append(cases, tcase{k, alg})
		}
	}
	outs := make([]bytes.Buffer, len(cases))
	t.Run("cases", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.k.Name+"/"+c.alg.Name(), func(t *testing.T) {
				t.Parallel()
				towerStats(t, &outs[i], c.k, c.alg)
			})
		}
	})
	if t.Failed() {
		return
	}
	var buf bytes.Buffer
	for i := range cases {
		buf.Write(outs[i].Bytes())
	}
	golden.Check(t, filepath.Join("testdata", "stats.golden"), buf.Bytes())
}

// towerStats runs the four executors on kernel k under alg, as cmd/verify
// does, and writes their statistics to w.
func towerStats(t *testing.T, w *bytes.Buffer, k kernels.Kernel, alg core.Allocator) {
	cfg := sched.DefaultConfig()
	an, err := hls.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblemFrom(k.Nest, an.Infos, an.Graph, k.Rmax, cfg.Lat)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := alg.Allocate(prob)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	golden := ir.NewStore()
	golden.RandomizeInputs(k.Nest, 7)
	inputs := golden.Clone()
	if _, err := ir.Interp(k.Nest, golden); err != nil {
		t.Fatal(err)
	}
	check := func(executor string, s *ir.Store) {
		if eq, diff := golden.Equal(s); !eq {
			t.Fatalf("%s diverged: %s", executor, diff)
		}
	}

	fsim := inputs.Clone()
	fstats, err := sched.RunFuncSim(k.Nest, plan, fsim)
	if err != nil {
		t.Fatal(err)
	}
	check("functional simulation", fsim)

	prog, err := codegen.Generate(k.Nest, plan)
	if err != nil {
		t.Fatal(err)
	}
	gen := inputs.Clone()
	gstats, err := prog.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	check("generated code", gen)

	fsmd, err := rtl.Build(k.Nest, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hw := inputs.Clone()
	rstats, err := fsmd.Simulate(hw)
	if err != nil {
		t.Fatal(err)
	}
	check("FSMD", hw)

	fmt.Fprintf(w, "%s %s Σβ=%d\n", k.Name, alg.Name(), alloc.Total())
	fmt.Fprintf(w, "  funcsim %+v\n", *fstats)
	fmt.Fprintf(w, "  codegen %+v\n", *gstats)
	fmt.Fprintf(w, "  fsmd    %+v\n", *rstats)
}
