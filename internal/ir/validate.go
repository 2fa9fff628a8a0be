package ir

import (
	"fmt"
)

// Validate checks that the nest belongs to the program class the pipeline
// supports: a perfect nest of counted loops with distinct induction
// variables, whose body references arrays through in-bounds affine index
// functions of those variables only.
func (n *Nest) Validate() error {
	if len(n.Loops) == 0 {
		return fmt.Errorf("nest %q: no loops", n.Name)
	}
	if len(n.Body) == 0 {
		return fmt.Errorf("nest %q: empty body", n.Name)
	}
	seen := map[string]bool{}
	for d, l := range n.Loops {
		if l.Var == "" {
			return fmt.Errorf("nest %q: loop %d has empty variable name", n.Name, d)
		}
		if seen[l.Var] {
			return fmt.Errorf("nest %q: duplicate loop variable %q", n.Name, l.Var)
		}
		seen[l.Var] = true
		if l.Step <= 0 {
			return fmt.Errorf("nest %q: loop %q has non-positive step %d", n.Name, l.Var, l.Step)
		}
		if l.Trip() == 0 {
			return fmt.Errorf("nest %q: loop %q has zero trip count (lo=%d hi=%d)", n.Name, l.Var, l.Lo, l.Hi)
		}
	}
	arrays := map[string]*Array{}
	for si, st := range n.Body {
		if st.LHS == nil {
			return fmt.Errorf("nest %q: statement %d has nil LHS", n.Name, si)
		}
		if st.RHS == nil {
			return fmt.Errorf("nest %q: statement %d has nil RHS", n.Name, si)
		}
		var err error
		WalkExpr(st.RHS, func(e Expr) {
			if err != nil {
				return
			}
			switch e := e.(type) {
			case *ArrayRef:
				err = n.checkRef(e, arrays)
			case *VarRef:
				if !seen[e.Name] {
					err = fmt.Errorf("nest %q: statement %d reads unknown variable %q", n.Name, si, e.Name)
				}
			case *BinOp:
				if !e.Op.Valid() {
					err = fmt.Errorf("nest %q: statement %d uses invalid operator %v", n.Name, si, e.Op)
				}
			}
		})
		if err != nil {
			return err
		}
		if err := n.checkRef(st.LHS, arrays); err != nil {
			return err
		}
	}
	return nil
}

// checkRef validates one array reference: the array is well-formed and used
// consistently, the index arity matches, index functions mention only nest
// variables, and every index stays in bounds over the whole iteration box.
func (n *Nest) checkRef(r *ArrayRef, arrays map[string]*Array) error {
	if r.Array == nil {
		return fmt.Errorf("nest %q: reference with nil array", n.Name)
	}
	if err := r.Array.check(); err != nil {
		return fmt.Errorf("nest %q: %v", n.Name, err)
	}
	if prev, ok := arrays[r.Array.Name]; ok && prev != r.Array {
		return fmt.Errorf("nest %q: two distinct Array objects named %q", n.Name, r.Array.Name)
	}
	arrays[r.Array.Name] = r.Array
	if r.key == "" {
		return fmt.Errorf("nest %q: reference to %s not built by ir.Ref", n.Name, r.Array.Name)
	}
	if len(r.index) != len(r.Array.Dims) {
		return fmt.Errorf("nest %q: %s has %d indices, array has %d dimensions",
			n.Name, r, len(r.index), len(r.Array.Dims))
	}
	for d, ix := range r.index {
		for _, v := range ix.Vars() {
			if n.LoopIndex(v) < 0 {
				return fmt.Errorf("nest %q: %s index %d uses non-loop variable %q", n.Name, r, d, v)
			}
		}
		lo, hi := ix.RangeOver(n.Loops)
		if lo < 0 || hi >= r.Array.Dims[d] {
			return fmt.Errorf("nest %q: %s index %d ranges over [%d,%d], bounds are [0,%d)",
				n.Name, r, d, lo, hi, r.Array.Dims[d])
		}
	}
	return nil
}
