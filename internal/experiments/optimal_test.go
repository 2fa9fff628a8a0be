package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/reuse"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
)

// GridPoint is one evaluated register assignment in an optimality study.
type GridPoint struct {
	Beta map[string]int
	Tmem int
	Loop int
}

// TmemOptimum exhaustively searches a candidate grid of per-reference
// register counts (subject to the budget) for the assignment minimizing
// Tmem, breaking ties toward fewer loop cycles and then fewer registers.
// It quantifies the optimality gap of the greedy allocators: CPA-RA is a
// greedy cut heuristic and the paper never claims optimality — this study
// measures how much is left on the table.
func TmemOptimum(nest *ir.Nest, rmax int, candidates map[string][]int, cfg sched.Config) (*GridPoint, int, error) {
	infos, err := reuse.Analyze(nest)
	if err != nil {
		return nil, 0, err
	}
	// One DFG serves every grid point; only the plan changes.
	g, err := dfg.Build(nest)
	if err != nil {
		return nil, 0, err
	}
	keys := make([]string, len(infos))
	cand := make([][]int, len(infos))
	for i, inf := range infos {
		keys[i] = inf.Key()
		cs := candidates[inf.Key()]
		if len(cs) == 0 {
			cs = []int{1, inf.Nu}
		}
		for _, c := range cs {
			if c < 1 || c > inf.Nu {
				return nil, 0, fmt.Errorf("experiments: candidate β=%d out of [1,%d] for %s", c, inf.Nu, inf.Key())
			}
		}
		cand[i] = cs
	}
	var best *GridPoint
	evaluated := 0
	beta := make([]int, len(infos))
	var walk func(i, used int) error
	walk = func(i, used int) error {
		if used > rmax {
			return nil
		}
		if i == len(keys) {
			plan, err := scalarrepl.NewPlan(nest, infos, beta)
			if err != nil {
				return err
			}
			res, err := sched.SimulateGraph(nest, g, plan, cfg)
			if err != nil {
				return err
			}
			evaluated++
			better := best == nil ||
				res.MemCycles < best.Tmem ||
				(res.MemCycles == best.Tmem && res.LoopCycles < best.Loop)
			if better {
				cp := make(map[string]int, len(keys))
				for i, k := range keys {
					cp[k] = beta[i]
				}
				best = &GridPoint{Beta: cp, Tmem: res.MemCycles, Loop: res.LoopCycles}
			}
			return nil
		}
		for _, c := range cand[i] {
			beta[i] = c
			if err := walk(i+1, used+c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, 0); err != nil {
		return nil, evaluated, err
	}
	if best == nil {
		return nil, evaluated, fmt.Errorf("experiments: no feasible grid point within %d registers", rmax)
	}
	return best, evaluated, nil
}

// TestOptimalityGapFigure1 measures the greedy CPA-RA against an
// exhaustive grid optimum on the running example. The study documents two
// facts: (1) CPA-RA dominates the other greedy algorithms, and (2) as a
// greedy cut heuristic it can leave Tmem on the table against the true
// optimum — here the optimum funds the off-critical-graph reference c
// together with d so that part of the iteration space reaches a single
// memory level. The gap is bounded and recorded.
func TestOptimalityGapFigure1(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search skipped in -short mode")
	}
	k := kernels.Figure1()
	candidates := map[string][]int{
		"a[k]":       {1, 4, 8, 12, 16, 20, 24, 30},
		"b[k][j]":    {1, 4, 8, 12, 16, 20, 24},
		"c[j]":       {1, 10, 20},
		"d[i][k]":    {1, 12, 20, 30},
		"e[i][j][k]": {1},
	}
	best, evaluated, err := TmemOptimum(k.Nest, k.Rmax, candidates, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if evaluated < 100 {
		t.Fatalf("grid too small to be meaningful: %d points", evaluated)
	}
	cpa, err := hls.Estimate(k, core.CPARA{}, hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := hls.Estimate(k, core.FRRA{}, hls.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("grid optimum: Tmem=%d with β=%v (%d points); CPA-RA Tmem=%d; FR-RA Tmem=%d",
		best.Tmem, best.Beta, evaluated, cpa.MemCycles, fr.MemCycles)
	if cpa.MemCycles < best.Tmem {
		t.Fatalf("CPA-RA (%d) beat the grid optimum (%d): grid search broken", cpa.MemCycles, best.Tmem)
	}
	// The greedy heuristic stays within 25% of the exhaustive optimum...
	if float64(cpa.MemCycles) > 1.25*float64(best.Tmem) {
		t.Errorf("CPA-RA Tmem %d more than 25%% above grid optimum %d", cpa.MemCycles, best.Tmem)
	}
	// ...while the optimum confirms FR-RA is far off the frontier.
	if fr.MemCycles <= best.Tmem {
		t.Errorf("FR-RA (%d) should be dominated by the grid optimum (%d)", fr.MemCycles, best.Tmem)
	}
	// The known optimal structure: fund d and c fully, split the rest.
	if best.Beta["d[i][k]"] != 30 || best.Beta["c[j]"] != 20 {
		t.Logf("note: grid optimum did not take the expected d=30/c=20 structure: %v", best.Beta)
	}
}

// TestOptimumRespectsBudget: every returned optimum fits the budget.
func TestOptimumRespectsBudget(t *testing.T) {
	k := kernels.Figure1()
	best, _, err := TmemOptimum(k.Nest, 40, map[string][]int{
		"a[k]":       {1, 8, 16},
		"b[k][j]":    {1, 8, 16},
		"c[j]":       {1, 20},
		"d[i][k]":    {1, 12, 30},
		"e[i][j][k]": {1},
	}, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range best.Beta {
		total += b
	}
	if total > 40 {
		t.Fatalf("optimum uses %d registers, budget 40", total)
	}
}

// TestOptimumRejectsBadCandidates guards the input validation.
func TestOptimumRejectsBadCandidates(t *testing.T) {
	k := kernels.Figure1()
	_, _, err := TmemOptimum(k.Nest, 64, map[string][]int{"a[k]": {0}}, sched.DefaultConfig())
	if err == nil {
		t.Fatal("β=0 candidate should be rejected")
	}
	_, _, err = TmemOptimum(k.Nest, 64, map[string][]int{"e[i][j][k]": {5}}, sched.DefaultConfig())
	if err == nil {
		t.Fatal("β>ν candidate should be rejected")
	}
}

// TestOptimumInfeasibleBudget: a budget below the smallest grid point is
// reported as infeasible.
func TestOptimumInfeasibleBudget(t *testing.T) {
	k := kernels.Figure1()
	_, _, err := TmemOptimum(k.Nest, 3, nil, sched.DefaultConfig())
	if err == nil {
		t.Fatal("budget below 5 staging registers should be infeasible")
	}
}
