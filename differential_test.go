package repro

// Differential fuzzing across the verification tower: for randomly
// generated loop nests, random register budgets and every allocator, the
// four executors — reference interpreter, associative functional
// simulation, generated code, and cycle-accurate FSMD — must all produce
// the same memory image, and the FSMD's executed cycle count must equal
// the analytic scheduler's prediction.

import (
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/rtl"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

func TestDifferentialRandomPrograms(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < trials; trial++ {
		nest := irgen.Nest(rng, irgen.Config{})
		nRefs := len(nest.RefGroups())
		rmax := nRefs + rng.Intn(48)
		prob, err := core.NewProblem(nest, rmax, dfg.DefaultLatencies())
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		for _, alg := range core.All() {
			alloc, err := alg.Allocate(prob)
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, alg.Name(), err, nest)
			}
			if err := alloc.Validate(prob); err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, nest)
			}
			plan, err := scalarrepl.NewPlan(nest, prob.Infos, alloc.Beta)
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, alg.Name(), err, nest)
			}
			checkTower(t, trial, alg.Name(), nest, plan, int64(trial))
		}
	}
}

// checkTower runs all four executors on one (nest, plan) and cross-checks.
func checkTower(t *testing.T, trial int, alg string, nest *ir.Nest, plan *scalarrepl.Plan, seed int64) {
	t.Helper()
	golden := ir.NewStore()
	golden.RandomizeInputs(nest, seed)
	inputs := golden.Clone()
	if _, err := ir.Interp(nest, golden); err != nil {
		t.Fatalf("trial %d %s: interpreter: %v\n%s", trial, alg, err, nest)
	}

	// 2. Associative functional simulation.
	fsim := inputs.Clone()
	if _, err := sched.RunFuncSim(nest, plan, fsim); err != nil {
		t.Fatalf("trial %d %s: funcsim: %v\n%s", trial, alg, err, nest)
	}
	if eq, diff := golden.Equal(fsim); !eq {
		t.Fatalf("trial %d %s: funcsim diverged: %s\n%s", trial, alg, diff, nest)
	}

	// 3. Generated code with direct-mapped banks.
	prog, err := codegen.Generate(nest, plan)
	if err != nil {
		t.Fatalf("trial %d %s: codegen: %v\n%s", trial, alg, err, nest)
	}
	gen := inputs.Clone()
	if _, err := prog.Run(gen); err != nil {
		t.Fatalf("trial %d %s: generated code: %v\n%s", trial, alg, err, nest)
	}
	if eq, diff := golden.Equal(gen); !eq {
		t.Fatalf("trial %d %s: generated code diverged: %s\n%s\n%s", trial, alg, diff, nest, prog)
	}

	// 4. Cycle-accurate FSMD, cross-checked against the analytic cycles.
	cfg := sched.DefaultConfig()
	res, err := sched.Simulate(nest, plan, cfg)
	if err != nil {
		t.Fatalf("trial %d %s: scheduler: %v\n%s", trial, alg, err, nest)
	}
	fsmd, err := rtl.Build(nest, plan, cfg)
	if err != nil {
		t.Fatalf("trial %d %s: rtl: %v\n%s", trial, alg, err, nest)
	}
	hw := inputs.Clone()
	stats, err := fsmd.Simulate(hw)
	if err != nil {
		t.Fatalf("trial %d %s: fsmd: %v\n%s", trial, alg, err, nest)
	}
	if eq, diff := golden.Equal(hw); !eq {
		t.Fatalf("trial %d %s: FSMD diverged: %s\n%s", trial, alg, diff, nest)
	}
	if stats.Cycles != res.LoopCycles {
		t.Fatalf("trial %d %s: FSMD executed %d cycles, scheduler predicted %d\n%s",
			trial, alg, stats.Cycles, res.LoopCycles, nest)
	}
}

// TestDifferentialRandomBetas drives the tower with arbitrary feasible β
// vectors (not just allocator outputs), probing plan/executor corners the
// algorithms never produce.
func TestDifferentialRandomBetas(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < trials; trial++ {
		nest := irgen.Nest(rng, irgen.Config{})
		prob, err := core.NewProblem(nest, 1<<20, dfg.DefaultLatencies())
		if err != nil {
			t.Fatal(err)
		}
		beta := make([]int, len(prob.Infos))
		for i, inf := range prob.Infos {
			beta[i] = 1 + rng.Intn(inf.Nu)
		}
		plan, err := scalarrepl.NewPlan(nest, prob.Infos, beta)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		checkTower(t, trial, "random-β", nest, plan, int64(trial))
	}
}
