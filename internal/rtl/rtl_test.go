package rtl

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

func buildFor(t *testing.T, name string, alg core.Allocator) (*ir.Nest, *scalarrepl.Plan, *FSMD) {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
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
	f, err := Build(k.Nest, plan, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k.Nest, plan, f
}

// TestFSMDClassesMatchScheduler: the FSMD has one control sequence per
// iteration class with the same state counts the scheduler predicts.
func TestFSMDClassesMatchScheduler(t *testing.T) {
	nest, plan, f := buildFor(t, "figure1", core.CPARA{})
	res, err := sched.Simulate(nest, plan, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Classes) != len(res.Classes) {
		t.Fatalf("FSMD has %d classes, scheduler %d", len(f.Classes), len(res.Classes))
	}
	for _, cs := range res.Classes {
		cf := f.Class(cs.Signature)
		if cf == nil {
			t.Fatalf("missing FSM for class %s", cs.Signature)
		}
		if cf.States != cs.IterCycles {
			t.Errorf("class %s: FSM %d states, scheduler %d cycles", cs.Signature, cf.States, cs.IterCycles)
		}
	}
}

// TestFSMDExecutionMatchesCyclePrediction: executing the FSMD state by
// state reproduces exactly the analytic loop cycle count.
func TestFSMDExecutionMatchesCyclePrediction(t *testing.T) {
	for _, alg := range []core.Allocator{core.FRRA{}, core.PRRA{}, core.CPARA{}} {
		nest, plan, f := buildFor(t, "figure1", alg)
		res, err := sched.Simulate(nest, plan, sched.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		store := ir.NewStore()
		store.RandomizeInputs(nest, 4)
		stats, err := f.Simulate(store)
		if err != nil {
			t.Fatalf("%T: %v", alg, err)
		}
		if stats.Cycles != res.LoopCycles {
			t.Errorf("%T: executed %d cycles, scheduler predicted %d", alg, stats.Cycles, res.LoopCycles)
		}
		if stats.Iterations != nest.IterationCount() {
			t.Errorf("%T: %d iterations, want %d", alg, stats.Iterations, nest.IterationCount())
		}
	}
}

// TestFSMDSemantics: the cycle-accurate execution produces the reference
// memory image for every allocator on the running example and FIR.
func TestFSMDSemantics(t *testing.T) {
	for _, name := range []string{"figure1", "fir"} {
		for _, alg := range []core.Allocator{core.FRRA{}, core.PRRA{}, core.CPARA{}} {
			nest, _, f := buildFor(t, name, alg)
			golden := ir.NewStore()
			golden.RandomizeInputs(nest, 9)
			hw := golden.Clone()
			if _, err := ir.Interp(nest, golden); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Simulate(hw); err != nil {
				t.Fatalf("%s/%T: %v", name, alg, err)
			}
			if eq, diff := golden.Equal(hw); !eq {
				t.Fatalf("%s/%T: FSMD execution diverged: %s", name, alg, diff)
			}
		}
	}
}

// TestFSMDPortDiscipline: execution never exceeds the configured port
// limit (the simulator would error), and the observed pressure reaches the
// limit on a port-contended kernel.
func TestFSMDPortDiscipline(t *testing.T) {
	nest, _, f := buildFor(t, "figure1", core.FRRA{})
	store := ir.NewStore()
	store.RandomizeInputs(nest, 2)
	stats, err := f.Simulate(store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxPortUse > 1 {
		t.Errorf("single-ported config observed %d-wide access", stats.MaxPortUse)
	}
}

// TestFSMDStateTable: the rendered state table shows RAM reads, register
// accesses, ALU evaluations and RAM writes in schedule order.
func TestFSMDStateTable(t *testing.T) {
	_, _, f := buildFor(t, "figure1", core.CPARA{})
	s := f.String()
	for _, frag := range []string{"class", "states", "ram_rd(c[j])", "alu(*)", "ram_wr(e[i][j][k])", "reg(d[i][k])"} {
		if !strings.Contains(s, frag) {
			t.Errorf("state table missing %q:\n%s", frag, s)
		}
	}
}

// TestFSMDLiteralOperands: kernels whose expressions contain literals and
// loop-variable operands (IMI's (t*(b-a))>>4) must execute correctly —
// exercising dfg.Arg immediates.
func TestFSMDLiteralOperands(t *testing.T) {
	nest, _, f := buildFor(t, "imi", core.CPARA{})
	golden := ir.NewStore()
	golden.RandomizeInputs(nest, 6)
	hw := golden.Clone()
	if _, err := ir.Interp(nest, golden); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Simulate(hw)
	if err != nil {
		t.Fatal(err)
	}
	if eq, diff := golden.Equal(hw); !eq {
		t.Fatalf("IMI FSMD diverged: %s", diff)
	}
	if stats.Cycles == 0 || stats.RAMWrites == 0 {
		t.Errorf("degenerate stats: %+v", stats)
	}
}
