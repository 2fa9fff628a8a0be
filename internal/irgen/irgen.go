// Package irgen generates random valid loop nests for property-based and
// differential testing: arbitrary (small) perfect nests with affine array
// references whose shapes are derived from the index ranges, so every
// generated program validates by construction.
package irgen

import (
	"fmt"
	"math/rand"

	"repro/internal/ir"
)

// Config bounds the generated programs.
type Config struct {
	MaxDepth  int // loop nest depth 1..MaxDepth (default 3)
	MaxTrip   int // per-loop trip count 2..MaxTrip (default 6)
	MaxArrays int // 2..MaxArrays arrays (default 4)
	MaxStmts  int // 1..MaxStmts statements (default 3)
	MaxExpr   int // RHS expression depth (default 3)
	// InteriorZeroProb, when positive, excludes each non-innermost loop
	// variable from a reference's index functions with this probability —
	// biasing references toward zero coefficients at interior walk depths
	// (`a[i][k]` under an `i,j,k` nest): windows revisited across an
	// interior loop, rare in unbiased draws. The innermost variable is
	// never excluded, so references stay non-constant. Zero (the default)
	// draws nothing from the rng and leaves generated programs identical
	// to earlier seeds.
	InteriorZeroProb float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.MaxTrip == 0 {
		c.MaxTrip = 6
	}
	if c.MaxArrays == 0 {
		c.MaxArrays = 4
	}
	if c.MaxStmts == 0 {
		c.MaxStmts = 3
	}
	if c.MaxExpr == 0 {
		c.MaxExpr = 3
	}
	return c
}

// exprOps excludes OpDiv (random operands divide by zero) — the hardware
// pipeline supports it, but differential fuzzing wants total functions.
var exprOps = []ir.OpKind{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
	ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpMin, ir.OpMax,
}

// Nest generates one random valid nest. The same seed yields the same
// program.
func Nest(rng *rand.Rand, cfg Config) *ir.Nest {
	cfg = cfg.withDefaults()
	for attempt := 0; ; attempt++ {
		n := tryNest(rng, cfg, attempt)
		if err := n.Validate(); err == nil {
			return n
		}
		if attempt > 100 {
			panic("irgen: could not generate a valid nest in 100 attempts")
		}
	}
}

func tryNest(rng *rand.Rand, cfg Config, attempt int) *ir.Nest {
	depth := 1 + rng.Intn(cfg.MaxDepth)
	vars := []string{"i", "j", "k", "l"}[:depth]
	loops := make([]ir.Loop, depth)
	for d := range loops {
		loops[d] = ir.Loop{Var: vars[d], Lo: 0, Hi: 2 + rng.Intn(cfg.MaxTrip-1), Step: 1}
		if rng.Intn(4) == 0 {
			loops[d].Step = 2
		}
	}
	nest := &ir.Nest{Name: fmt.Sprintf("gen%d", attempt), Loops: loops}

	// Pre-generate index affines, then size arrays to fit them.
	nArr := 2 + rng.Intn(cfg.MaxArrays-1)
	arrays := make([]*ir.Array, 0, nArr)
	mkRef := func(arrIdx int) *ir.ArrayRef {
		// The usable variables of this reference: with InteriorZeroProb set,
		// each non-innermost variable is dropped (across every dimension, so
		// its flat-index coefficient is zero) with that probability.
		use := vars
		if cfg.InteriorZeroProb > 0 {
			use = make([]string, 0, depth)
			for vi, v := range vars {
				if vi < depth-1 && rng.Float64() < cfg.InteriorZeroProb {
					continue
				}
				use = append(use, v)
			}
		}
		// Index: a random non-constant affine per dimension.
		dims := 1 + rng.Intn(2)
		idx := make([]ir.Affine, dims)
		sizes := make([]int, dims)
		for d := 0; d < dims; d++ {
			a := ir.AffConst(rng.Intn(2))
			for _, v := range use {
				if rng.Intn(2) == 0 {
					a = a.Add(ir.AffTerm(1+rng.Intn(2), v, 0))
				}
			}
			if a.IsConst() {
				a = a.Add(ir.AffVar(use[rng.Intn(len(use))]))
			}
			_, hi := a.RangeOver(loops)
			idx[d] = a
			sizes[d] = hi + 1
		}
		name := fmt.Sprintf("m%d", arrIdx)
		// Reuse (grow) an existing array of the same name when possible so
		// multiple references can alias the same storage.
		for _, prev := range arrays {
			if prev.Name == name {
				if len(prev.Dims) == dims {
					for d := range sizes {
						if sizes[d] > prev.Dims[d] {
							prev.Dims[d] = sizes[d]
						}
					}
					return ir.Ref(prev, idx...)
				}
				name = name + "x" // arity clash: distinct array
			}
		}
		bits := []int{4, 8, 16, 32}[rng.Intn(4)]
		arr := &ir.Array{Name: name, Dims: sizes, ElemBits: bits}
		arrays = append(arrays, arr)
		return ir.Ref(arr, idx...)
	}

	var mkExpr func(d int) ir.Expr
	mkExpr = func(d int) ir.Expr {
		if d <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				return ir.Lit(int64(rng.Intn(17) - 8))
			case 1:
				return ir.LoopVar(vars[rng.Intn(depth)])
			default:
				return mkRef(rng.Intn(nArr))
			}
		}
		op := exprOps[rng.Intn(len(exprOps))]
		return ir.Bin(op, mkExpr(d-1), mkExpr(d-1))
	}

	nStmts := 1 + rng.Intn(cfg.MaxStmts)
	for s := 0; s < nStmts; s++ {
		nest.Body = append(nest.Body, &ir.Assign{
			LHS: mkRef(rng.Intn(nArr)),
			RHS: mkExpr(cfg.MaxExpr),
		})
	}
	return nest
}
