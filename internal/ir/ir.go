// Package ir defines the loop-nest intermediate representation used by the
// register-allocation pipeline.
//
// The representation deliberately mirrors the program class the paper
// targets: perfectly nested counted loops whose body is a sequence of
// assignments between array references indexed by affine functions of the
// enclosing loop variables. Everything downstream — reuse analysis, DFG
// construction, allocation, scheduling — consumes this IR.
package ir

import (
	"fmt"
	"strings"
)

// Array describes a program array variable: its name, dimension sizes and
// element width in bits. Arrays are the unit the FPGA backend maps to RAM
// blocks; scalar replacement promotes individual elements to registers.
type Array struct {
	Name     string
	Dims     []int // extent of each dimension; all compile-time constants
	ElemBits int   // element width in bits (1..64)
}

// NewArray constructs an Array, panicking on malformed shapes. Construction
// of kernels is programmatic and compile-time-ish, so panics (not errors)
// are the right failure mode here, per the validation in Validate.
func NewArray(name string, elemBits int, dims ...int) *Array {
	a := &Array{Name: name, Dims: append([]int(nil), dims...), ElemBits: elemBits}
	if err := a.check(); err != nil {
		panic("ir.NewArray: " + err.Error())
	}
	return a
}

func (a *Array) check() error {
	if a.Name == "" {
		return fmt.Errorf("array has empty name")
	}
	if a.ElemBits < 1 || a.ElemBits > 64 {
		return fmt.Errorf("array %s: element width %d out of range [1,64]", a.Name, a.ElemBits)
	}
	if len(a.Dims) == 0 {
		return fmt.Errorf("array %s: no dimensions", a.Name)
	}
	for i, d := range a.Dims {
		if d <= 0 {
			return fmt.Errorf("array %s: dimension %d has non-positive extent %d", a.Name, i, d)
		}
	}
	return nil
}

// Size returns the number of elements in the array.
func (a *Array) Size() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Bits returns the total storage footprint of the array in bits.
func (a *Array) Bits() int { return a.Size() * a.ElemBits }

// Mask returns the value mask of the element width: every store of an
// element, to RAM or to a register, truncates the value to it.
func (a *Array) Mask() int64 {
	if a.ElemBits >= 64 {
		return -1
	}
	return int64(1)<<uint(a.ElemBits) - 1
}

// FlatIndex converts a multi-dimensional index to a row-major flat offset.
// It returns an error when idx is out of bounds.
func (a *Array) FlatIndex(idx []int) (int, error) {
	if len(idx) != len(a.Dims) {
		return 0, fmt.Errorf("array %s: got %d indices, want %d", a.Name, len(idx), len(a.Dims))
	}
	flat := 0
	for d, v := range idx {
		if v < 0 || v >= a.Dims[d] {
			return 0, fmt.Errorf("array %s: index %d out of bounds [0,%d) in dimension %d", a.Name, v, a.Dims[d], d)
		}
		flat = flat*a.Dims[d] + v
	}
	return flat, nil
}

// Loop is one counted loop of a perfect nest: for Var := Lo; Var < Hi; Var += Step.
type Loop struct {
	Var  string
	Lo   int
	Hi   int
	Step int
}

// Trip returns the number of iterations the loop executes.
func (l Loop) Trip() int {
	if l.Step <= 0 || l.Hi <= l.Lo {
		return 0
	}
	return (l.Hi - l.Lo + l.Step - 1) / l.Step
}

// OpKind enumerates the arithmetic/logic operators the datapath supports.
type OpKind int

// Operator kinds. Latency and area per operator live in the scheduler and
// FPGA models respectively; the IR only records which operator is meant.
const (
	OpAdd OpKind = iota
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpMin
	OpMax
	opKindCount // sentinel, keep last
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpMin: "min", OpMax: "max",
}

// String returns the source-level spelling of the operator.
func (op OpKind) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(op))
	}
	return opNames[op]
}

// Valid reports whether op is one of the defined operator kinds.
func (op OpKind) Valid() bool { return op >= 0 && op < opKindCount }

// Expr is a node of an assignment's right-hand side expression tree.
// Implementations: *ArrayRef, *BinOp, *IntLit, *VarRef.
type Expr interface {
	isExpr()
	String() string
}

// ArrayRef is an array reference a[f1(i...)][f2(i...)]...; it appears both
// as an Expr (a read) and as the left-hand side of an Assign (a write).
//
// A reference is immutable once built. Ref, its only constructor, renders
// its key once and gives it its own index storage, the index is readable
// only through Index, and a changed reference is a new one built through
// Ref — so the key can never go stale, and Key costs nothing on the
// per-point paths that group and look up references by it.
type ArrayRef struct {
	Array *Array
	index []Affine
	key   string // String() rendered once by Ref
}

// Ref builds an ArrayRef over the given affine index expressions. The
// reference keeps its own copy of every index function.
func Ref(a *Array, index ...Affine) *ArrayRef {
	idx := make([]Affine, len(index))
	for i, ix := range index {
		idx[i] = ix.Clone()
	}
	r := &ArrayRef{Array: a, index: idx}
	r.key = r.String()
	return r
}

func (*ArrayRef) isExpr() {}

// Index returns the reference's index functions, outermost dimension
// first. The slice and its affines are the reference's own storage and
// read-only: build a new reference with Ref to change an index.
func (r *ArrayRef) Index() []Affine { return r.index }

// IndexAt evaluates the index functions at one iteration, outermost
// dimension first.
func (r *ArrayRef) IndexAt(env map[string]int) []int {
	idx := make([]int, len(r.index))
	for d, ix := range r.index {
		idx[d] = ix.Eval(env)
	}
	return idx
}

// String renders the reference like d[i][k].
func (r *ArrayRef) String() string {
	var b strings.Builder
	b.WriteString(r.Array.Name)
	for _, ix := range r.index {
		b.WriteByte('[')
		b.WriteString(ix.String())
		b.WriteByte(']')
	}
	return b.String()
}

// Key returns the canonical identity of the *static* reference: array name
// plus index functions, rendered like String. The paper treats textually
// identical references in different statements (e.g. d[i][k] written by
// one statement and read by the next) as a single reference for allocation
// purposes; Key is what groups them.
func (r *ArrayRef) Key() string { return r.key }

// BinOp is a binary operator application.
type BinOp struct {
	Op   OpKind
	L, R Expr
}

// Bin builds a binary expression node.
func Bin(op OpKind, l, r Expr) *BinOp { return &BinOp{Op: op, L: l, R: r} }

func (*BinOp) isExpr() {}

func (b *BinOp) String() string {
	if b.Op == OpMin || b.Op == OpMax {
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.L, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// IntLit is an integer literal operand.
type IntLit struct{ Value int64 }

// Lit builds an integer literal node.
func Lit(v int64) *IntLit { return &IntLit{Value: v} }

func (*IntLit) isExpr() {}

func (l *IntLit) String() string { return fmt.Sprintf("%d", l.Value) }

// VarRef reads the current value of a loop variable (e.g. the `t` factor in
// an interpolation kernel).
type VarRef struct{ Name string }

// LoopVar builds a loop-variable read.
func LoopVar(name string) *VarRef { return &VarRef{Name: name} }

func (*VarRef) isExpr() {}

func (v *VarRef) String() string { return v.Name }

// Eval evaluates e at one iteration, reading every array element through
// read: each executor that checks a plan against Interp supplies its own
// storage path.
func Eval(e Expr, env map[string]int, read func(*ArrayRef) (int64, error)) (int64, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, nil
	case *VarRef:
		return int64(env[e.Name]), nil
	case *ArrayRef:
		return read(e)
	case *BinOp:
		l, err := Eval(e.L, env, read)
		if err != nil {
			return 0, err
		}
		r, err := Eval(e.R, env, read)
		if err != nil {
			return 0, err
		}
		return EvalOp(e.Op, l, r)
	default:
		return 0, fmt.Errorf("ir: unknown expression %T", e)
	}
}

// Assign is one statement of the loop body: LHS = RHS.
type Assign struct {
	LHS *ArrayRef
	RHS Expr
}

func (a *Assign) String() string { return fmt.Sprintf("%s = %s;", a.LHS, a.RHS) }

// Nest is a perfect loop nest: Loops (outermost first) around a straight-line
// Body of assignments executed once per iteration point.
type Nest struct {
	Name  string
	Loops []Loop
	Body  []*Assign
}

// NewNest constructs a validated nest. Prefer it over a literal for
// hand-built nests: the iteration-space walkers downstream assume the
// validated program class — in particular positive loop steps, which a
// literal does not enforce and a `v += Step` walk loop would otherwise
// spin on forever.
func NewNest(name string, loops []Loop, body []*Assign) (*Nest, error) {
	n := &Nest{Name: name, Loops: append([]Loop(nil), loops...), Body: append([]*Assign(nil), body...)}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// Depth returns the nesting depth.
func (n *Nest) Depth() int { return len(n.Loops) }

// IterationCount returns the total number of iteration points of the nest.
func (n *Nest) IterationCount() int {
	total := 1
	for _, l := range n.Loops {
		total *= l.Trip()
	}
	return total
}

// Each calls f once per iteration point in row-major order (outermost
// loop slowest), with every loop variable bound in env. env is one map
// reused across the whole walk: f must not retain it. Each stops at, and
// returns, the first error f returns.
func (n *Nest) Each(f func(env map[string]int) error) error {
	env := make(map[string]int, len(n.Loops))
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == len(n.Loops) {
			return f(env)
		}
		l := n.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			if err := walk(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}

// LoopIndex returns the position of the loop variable v in the nest
// (0 = outermost), or -1 when v is not a loop variable of the nest.
func (n *Nest) LoopIndex(v string) int {
	for i, l := range n.Loops {
		if l.Var == v {
			return i
		}
	}
	return -1
}

// Arrays returns every array mentioned in the nest body, in first-use order.
func (n *Nest) Arrays() []*Array {
	var order []*Array
	seen := map[string]bool{}
	add := func(a *Array) {
		if !seen[a.Name] {
			seen[a.Name] = true
			order = append(order, a)
		}
	}
	for _, st := range n.Body {
		walkExpr(st.RHS, func(e Expr) {
			if r, ok := e.(*ArrayRef); ok {
				add(r.Array)
			}
		})
		add(st.LHS.Array)
	}
	return order
}

// RefUse describes one static occurrence of an array reference in the body.
type RefUse struct {
	Ref     *ArrayRef
	Stmt    int  // index into Nest.Body
	IsWrite bool // true when the occurrence is the statement's LHS
}

// RefUses returns every static array-reference occurrence in body order
// (reads of a statement before its write).
func (n *Nest) RefUses() []RefUse {
	var uses []RefUse
	for si, st := range n.Body {
		walkExpr(st.RHS, func(e Expr) {
			if r, ok := e.(*ArrayRef); ok {
				uses = append(uses, RefUse{Ref: r, Stmt: si})
			}
		})
		uses = append(uses, RefUse{Ref: st.LHS, Stmt: si, IsWrite: true})
	}
	return uses
}

// RefGroup aggregates all occurrences of one static reference (same array,
// same index functions) across the body — the paper's unit of allocation.
type RefGroup struct {
	Key string
	// ID is the group's position in RefGroups (first-use order): the dense
	// reference number every later stage indexes by. The body DFG carries
	// it as dfg.Node.RefID, the reuse summary lists the group at Infos[ID],
	// and allocations and storage plans hold it at index ID.
	ID       int
	Ref      *ArrayRef // representative occurrence
	Reads    int       // number of read occurrences in the body
	Writes   int       // number of write occurrences in the body
	FirstUse int       // body order of first occurrence (for stable sorting)
	// WriteFirst reports that the first occurrence in body order is a
	// write, so the reference's first value needs no load.
	WriteFirst bool
	// Aliased reports that the reference's array is written and touched
	// by another static reference too, so one may observe the other's
	// elements and register residency could break consistency.
	Aliased bool
}

// RefGroups returns the reference groups of the nest in first-use order.
func (n *Nest) RefGroups() []*RefGroup {
	byKey := map[string]*RefGroup{}
	var order []*RefGroup
	for pos, u := range n.RefUses() {
		g := byKey[u.Ref.Key()]
		if g == nil {
			g = &RefGroup{Key: u.Ref.Key(), ID: len(order), Ref: u.Ref, FirstUse: pos, WriteFirst: u.IsWrite}
			byKey[g.Key] = g
			order = append(order, g)
		}
		if u.IsWrite {
			g.Writes++
		} else {
			g.Reads++
		}
	}
	for _, g := range order {
		for _, h := range order {
			if h != g && h.Ref.Array.Name == g.Ref.Array.Name && (g.Writes > 0 || h.Writes > 0) {
				g.Aliased = true
				break
			}
		}
	}
	return order
}

// walkExpr visits e and all sub-expressions in left-to-right order.
func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	if b, ok := e.(*BinOp); ok {
		walkExpr(b.L, f)
		walkExpr(b.R, f)
	}
}

// WalkExpr exposes expression traversal to other packages.
func WalkExpr(e Expr, f func(Expr)) { walkExpr(e, f) }

// String renders the nest as C-like pseudocode.
func (n *Nest) String() string {
	var b strings.Builder
	if n.Name != "" {
		fmt.Fprintf(&b, "// kernel %s\n", n.Name)
	}
	for d, l := range n.Loops {
		indent(&b, d)
		if l.Step == 1 {
			fmt.Fprintf(&b, "for (%s = %d; %s < %d; %s++) {\n", l.Var, l.Lo, l.Var, l.Hi, l.Var)
		} else {
			fmt.Fprintf(&b, "for (%s = %d; %s < %d; %s += %d) {\n", l.Var, l.Lo, l.Var, l.Hi, l.Var, l.Step)
		}
	}
	for _, st := range n.Body {
		indent(&b, len(n.Loops))
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	for d := len(n.Loops) - 1; d >= 0; d-- {
		indent(&b, d)
		b.WriteString("}\n")
	}
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}
