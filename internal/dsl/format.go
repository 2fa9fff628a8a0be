package dsl

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Format renders a nest back into the kernel DSL, such that
// Parse(Format(n)) reproduces an equivalent nest (round-trip checked by
// property tests). It is the inverse of Parse up to whitespace and
// canonical parenthesization.
func Format(n *ir.Nest) string {
	var b strings.Builder
	if n.Name != "" {
		fmt.Fprintf(&b, "kernel %s;\n", n.Name)
	}
	for _, a := range n.Arrays() {
		fmt.Fprintf(&b, "array %s", a.Name)
		for _, d := range a.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		fmt.Fprintf(&b, ":%d;\n", a.ElemBits)
	}
	for d, l := range n.Loops {
		b.WriteString(strings.Repeat("  ", d))
		fmt.Fprintf(&b, "for %s = %d..%d", l.Var, l.Lo, l.Hi)
		if l.Step != 1 {
			fmt.Fprintf(&b, " step %d", l.Step)
		}
		b.WriteString(" {\n")
	}
	ind := strings.Repeat("  ", len(n.Loops))
	for _, st := range n.Body {
		fmt.Fprintf(&b, "%s%s = %s;\n", ind, formatRef(st.LHS), formatExpr(st.RHS))
	}
	for d := len(n.Loops) - 1; d >= 0; d-- {
		b.WriteString(strings.Repeat("  ", d))
		b.WriteString("}\n")
	}
	return b.String()
}

func formatRef(r *ir.ArrayRef) string {
	var b strings.Builder
	b.WriteString(r.Array.Name)
	for _, ix := range r.Index() {
		fmt.Fprintf(&b, "[%s]", ix) // Affine.String is DSL-compatible
	}
	return b.String()
}

func formatExpr(e ir.Expr) string {
	switch e := e.(type) {
	case *ir.IntLit:
		if e.Value < 0 {
			// The DSL has no unary minus in value expressions.
			return fmt.Sprintf("(0 - %d)", -e.Value)
		}
		return fmt.Sprintf("%d", e.Value)
	case *ir.VarRef:
		return e.Name
	case *ir.ArrayRef:
		return formatRef(e)
	case *ir.BinOp:
		if e.Op == ir.OpMin || e.Op == ir.OpMax {
			return fmt.Sprintf("%s(%s, %s)", e.Op, formatExpr(e.L), formatExpr(e.R))
		}
		return fmt.Sprintf("(%s %s %s)", formatExpr(e.L), e.Op, formatExpr(e.R))
	default:
		panic(fmt.Sprintf("dsl: cannot format expression %T", e))
	}
}
