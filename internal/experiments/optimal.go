package experiments

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/ir"
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
