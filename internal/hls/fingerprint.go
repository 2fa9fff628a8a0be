// The key of the in-process analysis memo (internal/dse): a rendering of
// the whole nest, since every part of it reaches the Analysis. The key
// names no stored value — analyses are a closed form, recomputed in every
// process that needs one (DESIGN.md §18) — so its format may change
// freely.
package hls

import (
	"strconv"

	"repro/internal/ir"
	"repro/internal/kernels"
)

// KernelFingerprint renders the kernel's nest, so any change to what
// Analyze reads from it changes the string. It renders the nest's name;
// every loop's variable, bounds and step; and each statement's left-hand
// reference and right-hand tree in prefix order — operators by kind,
// literal values, loop-variable reads, and references by their key (the
// identity Analyze itself groups them by) with the array's element width
// and dimensions. Names are length-prefixed and every operator takes two
// operands, so no token runs into the next: the literal -5 renders "#-5"
// and 0 - 5 renders "o1#0#5".
//
//repro:nohash Kernel.Name — identity label; the analysis memo keys it separately
//repro:nohash Kernel.Description — documentation only
//repro:nohash Kernel.Rmax — a budget for allocation, which every design point sets
func KernelFingerprint(k kernels.Kernel) string {
	n := k.Nest
	size := 23 + len(n.Name)
	for _, l := range n.Loops {
		size += 84 + len(l.Var)
	}
	for _, st := range n.Body {
		size += 2 + nodeBound(st.LHS)
		ir.WalkExpr(st.RHS, func(e ir.Expr) { size += nodeBound(e) })
	}
	b := make([]byte, 0, size)
	b = appendName(b, n.Name)
	b = append(b, '|')
	for _, l := range n.Loops {
		b = appendName(b, l.Var)
		b = strconv.AppendInt(b, int64(l.Lo), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(l.Hi), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(l.Step), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, st := range n.Body {
		b = appendNode(b, st.LHS)
		b = append(b, '=')
		ir.WalkExpr(st.RHS, func(e ir.Expr) { b = appendNode(b, e) })
		b = append(b, ';')
	}
	return string(b)
}

// appendNode renders one expression node, without its operands: a marker
// byte, then the node's operator kind, value, or length-prefixed name.
func appendNode(b []byte, e ir.Expr) []byte {
	switch e := e.(type) {
	case *ir.ArrayRef:
		b = append(b, 'r')
		b = appendName(b, e.Key())
		b = strconv.AppendInt(b, int64(e.Array.ElemBits), 10)
		for _, d := range e.Array.Dims {
			b = append(b, 'x')
			b = strconv.AppendInt(b, int64(d), 10)
		}
	case *ir.BinOp:
		b = append(b, 'o')
		b = strconv.AppendInt(b, int64(e.Op), 10)
	case *ir.IntLit:
		b = append(b, '#')
		b = strconv.AppendInt(b, e.Value, 10)
	case *ir.VarRef:
		b = append(b, '$')
		b = appendName(b, e.Name)
	}
	return b
}

// nodeBound bounds the bytes appendNode writes for e: every integer takes
// at most 20 bytes with its sign.
func nodeBound(e ir.Expr) int {
	switch e := e.(type) {
	case *ir.ArrayRef:
		return 43 + len(e.Key()) + 21*len(e.Array.Dims)
	case *ir.VarRef:
		return 22 + len(e.Name)
	}
	return 21
}

// appendName renders a name with its length, so no name can run into the
// text that follows it.
func appendName(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}
