// Package transform implements the source-level loop transformations the
// paper's code-generation scheme relies on: peeling iterations of a loop
// (the pre-peel/back-peel that hosts register fills and drains outside the
// steady-state body) and innermost-loop unrolling (which exposes more
// references per iteration to the allocator and more parallelism to the
// scheduler).
//
// Transformations preserve semantics by construction and are additionally
// machine-checked in tests by comparing interpreter results.
package transform

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/ir"
)

// PeelOuter splits the outermost loop after count iterations, returning
// the peeled prologue nest and the remainder nest. Executing the prologue
// to completion and then the remainder is equivalent to the original nest
// (outermost iterations execute in order, so the split is always sound).
func PeelOuter(nest *ir.Nest, count int) (prologue, remainder *ir.Nest, err error) {
	if err := nest.Validate(); err != nil {
		return nil, nil, fmt.Errorf("transform: %w", err)
	}
	outer := nest.Loops[0]
	if count < 1 || count >= outer.Trip() {
		return nil, nil, fmt.Errorf("transform: peel count %d out of range [1,%d)", count, outer.Trip())
	}
	mid := outer.Lo + count*outer.Step
	prologue = cloneNest(nest, nest.Name+"_peel")
	prologue.Loops[0].Hi = mid
	remainder = cloneNest(nest, nest.Name+"_rest")
	remainder.Loops[0].Lo = mid
	if err := prologue.Validate(); err != nil {
		return nil, nil, err
	}
	if err := remainder.Validate(); err != nil {
		return nil, nil, err
	}
	return prologue, remainder, nil
}

// Unroll replicates the innermost loop body factor times, adjusting index
// functions and loop-variable reads by the unroll offset, and widens the
// innermost step accordingly. The innermost trip count must be divisible
// by the factor.
func Unroll(nest *ir.Nest, factor int) (*ir.Nest, error) {
	if err := nest.Validate(); err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	if factor < 2 {
		return nil, fmt.Errorf("transform: unroll factor %d must be ≥2", factor)
	}
	inner := nest.Loops[nest.Depth()-1]
	if inner.Trip()%factor != 0 {
		return nil, fmt.Errorf("transform: innermost trip %d not divisible by factor %d", inner.Trip(), factor)
	}
	out := cloneNest(nest, fmt.Sprintf("%s_u%d", nest.Name, factor))
	out.Loops[len(out.Loops)-1].Step = inner.Step * factor
	out.Body = nil
	for c := 0; c < factor; c++ {
		offset := c * inner.Step
		for _, st := range nest.Body {
			out.Body = append(out.Body, &ir.Assign{
				LHS: shiftRef(st.LHS, inner.Var, offset),
				RHS: shiftExpr(st.RHS, inner.Var, offset),
			})
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: unrolled nest invalid: %w", err)
	}
	return out, nil
}

// shiftRef builds a copy of a reference substituting var := var + offset
// in every index function (affine, so the substitution adds coeff·offset).
func shiftRef(r *ir.ArrayRef, v string, offset int) *ir.ArrayRef {
	idx := make([]ir.Affine, len(r.Index()))
	for d, ix := range r.Index() {
		idx[d] = ix.Add(ir.AffConst(ix.Coeff(v) * offset))
	}
	return ir.Ref(r.Array, idx...)
}

// shiftExpr rewrites an expression substituting loop-variable reads of v
// with v + offset and shifting array indices.
func shiftExpr(e ir.Expr, v string, offset int) ir.Expr {
	switch e := e.(type) {
	case *ir.IntLit:
		return ir.Lit(e.Value)
	case *ir.VarRef:
		if e.Name == v && offset != 0 {
			return ir.Bin(ir.OpAdd, ir.LoopVar(v), ir.Lit(int64(offset)))
		}
		return ir.LoopVar(e.Name)
	case *ir.ArrayRef:
		return shiftRef(e, v, offset)
	case *ir.BinOp:
		return ir.Bin(e.Op, shiftExpr(e.L, v, offset), shiftExpr(e.R, v, offset))
	default:
		panic(fmt.Sprintf("transform: unsupported expression %T", e))
	}
}

func cloneNest(n *ir.Nest, name string) *ir.Nest {
	out := &ir.Nest{Name: name, Loops: append([]ir.Loop(nil), n.Loops...)}
	for _, st := range n.Body {
		out.Body = append(out.Body, &ir.Assign{LHS: st.LHS.Clone(), RHS: cloneExpr(st.RHS)})
	}
	return out
}

func cloneExpr(e ir.Expr) ir.Expr {
	return shiftExpr(e, "", 0)
}

// Interchange swaps loops p and q (0-based nest levels) after checking
// legality against the nest's exact dependences: every distance vector
// must stay lexicographically non-negative under the swap. Interchange
// changes which loop carries reuse — the lever that trades register
// requirement ν against locality in the paper's framework.
func Interchange(nest *ir.Nest, p, q int) (*ir.Nest, error) {
	legal, violations, err := deps.InterchangeLegal(nest, p, q)
	if err != nil {
		return nil, err
	}
	if !legal {
		return nil, fmt.Errorf("transform: interchange(%d,%d) illegal; first violation: %s", p, q, violations[0])
	}
	out := cloneNest(nest, fmt.Sprintf("%s_x%d%d", nest.Name, p, q))
	out.Loops[p], out.Loops[q] = out.Loops[q], out.Loops[p]
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
