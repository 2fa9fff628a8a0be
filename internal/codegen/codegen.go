// Package codegen materializes a storage plan as explicit code — the
// paper's §2 code-generation scheme: the iterations where input data must
// be saved into registers are pre-peeled into prologue transfer loops, the
// steady-state loop body reads covered references from named register
// variables, and the data is restored to memory by epilogue (back-peeled)
// transfer loops at reuse-region boundaries.
//
// The generated program is an executable lowered form (interpreted by Run)
// and a printable C-like listing (String), and is machine-checked against
// the reference interpreter: generating code must never change semantics.
//
//repro:deterministic-output
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/scalarrepl"
)

// Program is the lowered, storage-explicit form of one kernel under one
// storage plan.
type Program struct {
	Nest *ir.Nest
	Plan *scalarrepl.Plan
	// RegDecls lists the register banks, one per covered reference.
	RegDecls []RegDecl
}

// RegDecl declares the register bank generated for one reference.
type RegDecl struct {
	Name     string // C-like identifier, e.g. "r_a" for array a
	RefKey   string
	Size     int // number of registers (the coverage)
	ElemBits int
}

// Generate lowers the nest + plan into a Program.
func Generate(nest *ir.Nest, plan *scalarrepl.Plan) (*Program, error) {
	if nest == nil || plan == nil {
		return nil, fmt.Errorf("codegen: nil nest or plan")
	}
	p := &Program{Nest: nest, Plan: plan}
	used := map[string]bool{}
	for _, e := range plan.Order() {
		if e.Coverage == 0 {
			continue
		}
		name := "r_" + e.Info.Group.Ref.Array.Name
		for used[name] {
			name += "_"
		}
		used[name] = true
		p.RegDecls = append(p.RegDecls, RegDecl{
			Name:     name,
			RefKey:   e.Info.Key(),
			Size:     e.Coverage,
			ElemBits: e.Info.Group.Ref.Array.ElemBits,
		})
	}
	return p, nil
}

func (p *Program) declFor(key string) *RegDecl {
	for i := range p.RegDecls {
		if p.RegDecls[i].RefKey == key {
			return &p.RegDecls[i]
		}
	}
	return nil
}

// String renders the generated code as a C-like listing: register
// declarations, the peeled prologue/epilogue transfer loops (expressed as
// region-boundary transfer blocks), and the steady-state loop whose
// covered operands read register variables.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* generated from kernel %s under plan Σβ=%d */\n", p.Nest.Name, p.Plan.TotalRegisters())
	for _, d := range p.RegDecls {
		fmt.Fprintf(&b, "reg%d %s[%d]; /* window of %s */\n", d.ElemBits, d.Name, d.Size, d.RefKey)
	}
	depth := 0
	indent := func() string { return strings.Repeat("  ", depth) }
	for li, l := range p.Nest.Loops {
		// Emit region-boundary transfers for references whose reuse region
		// is keyed by the loops outside level li.
		for _, e := range p.Plan.Order() {
			if e.Coverage == 0 || e.Info.ReuseLevel != li {
				continue
			}
			d := p.declFor(e.Info.Key())
			if !e.WriteFirst && e.Info.Group.Reads > 0 {
				fmt.Fprintf(&b, "%s/* prologue: fill %s (%d regs) from %s */\n",
					indent(), d.Name, d.Size, e.Info.Group.Ref.Array.Name)
			}
		}
		fmt.Fprintf(&b, "%sfor (%s = %d; %s < %d; %s += %d) {\n", indent(), l.Var, l.Lo, l.Var, l.Hi, l.Var, l.Step)
		depth++
	}
	for _, st := range p.Nest.Body {
		fmt.Fprintf(&b, "%s%s = %s;\n", indent(), p.operand(st.LHS), p.expr(st.RHS))
	}
	for li := len(p.Nest.Loops) - 1; li >= 0; li-- {
		depth--
		fmt.Fprintf(&b, "%s}\n", indent())
		for _, e := range p.Plan.Order() {
			if e.Coverage == 0 || e.Info.ReuseLevel != li {
				continue
			}
			if e.Info.Group.Writes > 0 {
				d := p.declFor(e.Info.Key())
				fmt.Fprintf(&b, "%s/* epilogue: drain %s (%d regs) to %s */\n",
					indent(), d.Name, d.Size, e.Info.Group.Ref.Array.Name)
			}
		}
	}
	return b.String()
}

// operand renders one array reference as either a register-bank access
// (covered) or the original array access, with the paper's predication:
// partially covered windows guard the register path with the window bound.
func (p *Program) operand(r *ir.ArrayRef) string {
	e := p.Plan.ByKey(r.Key())
	if e == nil || e.Coverage == 0 {
		return r.String()
	}
	d := p.declFor(r.Key())
	inner := p.Nest.Loops[p.Nest.Depth()-1].Var
	if e.FullyReplaced() {
		return fmt.Sprintf("%s[%s]", d.Name, slotIndex(e, d, inner))
	}
	return fmt.Sprintf("(%s < %d ? %s[%s] : %s)", inner, e.Coverage, d.Name, slotIndex(e, d, inner), r)
}

// slotIndex renders the register-bank addressing expression: rotating
// banks index by the element's flat address modulo the bank size (the
// sliding window rotates through the slots); otherwise the innermost-window
// ordinal addresses the bank directly.
func slotIndex(e *scalarrepl.Entry, d *RegDecl, innerVar string) string {
	if e.RotatingSlots() {
		return fmt.Sprintf("(%s) %% %d", e.FlatAffine(), d.Size)
	}
	return innerVar
}

func (p *Program) expr(e ir.Expr) string {
	switch e := e.(type) {
	case *ir.IntLit:
		return e.String()
	case *ir.VarRef:
		return e.Name
	case *ir.ArrayRef:
		return p.operand(e)
	case *ir.BinOp:
		if e.Op == ir.OpMin || e.Op == ir.OpMax {
			return fmt.Sprintf("%s(%s, %s)", e.Op, p.expr(e.L), p.expr(e.R))
		}
		return fmt.Sprintf("(%s %s %s)", p.expr(e.L), e.Op, p.expr(e.R))
	default:
		return "?"
	}
}

// Run executes the lowered program with real values: register banks are
// explicit arrays indexed by window ordinal, transfers happen at region
// boundaries exactly as the listing describes, and the final store is the
// program's memory image. It returns transfer statistics.
//
// Run is intentionally an independent implementation from sched.RunFuncSim
// (banks indexed by ordinal here, associative files there); agreement of
// the two executions and the reference interpreter is checked in tests.
type RunStats struct {
	PrologueLoads  int
	EpilogueStores int
	RegisterReads  int
	RegisterWrites int
	RAMReads       int
	RAMWrites      int
}

type bank struct {
	decl    *RegDecl
	entry   *scalarrepl.Entry
	vals    []int64
	present []bool
	dirty   []bool
	// elem[i] is the absolute flat element the ordinal slot currently
	// caches (-1 when empty) — needed when windows slide.
	elem []int
}

// Run executes the program against the store.
func (p *Program) Run(store *ir.Store) (*RunStats, error) {
	for _, a := range p.Nest.Arrays() {
		if !store.Bound(a.Name) {
			store.Bind(a)
		}
	}
	stats := &RunStats{}
	banks := map[string]*bank{}
	lastRegion := map[string]int{}
	for i := range p.RegDecls {
		d := &p.RegDecls[i]
		e := p.Plan.ByKey(d.RefKey)
		banks[d.RefKey] = &bank{
			decl:    d,
			entry:   e,
			vals:    make([]int64, d.Size),
			present: make([]bool, d.Size),
			dirty:   make([]bool, d.Size),
			elem:    make([]int, d.Size),
		}
		lastRegion[d.RefKey] = -1
	}
	env := map[string]int{}
	flushBank := func(bk *bank) error {
		arr := bk.entry.Info.Group.Ref.Array
		for o := range bk.vals {
			if bk.present[o] && bk.dirty[o] {
				if err := storeFlat(store, arr, bk.elem[o], bk.vals[o]); err != nil {
					return err
				}
				stats.EpilogueStores++
				stats.RAMWrites++
			}
			bk.present[o], bk.dirty[o] = false, false
		}
		return nil
	}
	slot := func(bk *bank, env map[string]int) (int, int) {
		o := bk.entry.SlotOf(env)
		flat := bk.entry.FlatAffine().Eval(env)
		return o, flat
	}
	readRef := func(r *ir.ArrayRef) (int64, error) {
		bk := banks[r.Key()]
		if bk == nil || !bk.entry.Hit(env) {
			stats.RAMReads++
			return store.Load(r.Array, evalIdx(r, env))
		}
		o, flat := slot(bk, env)
		if !bk.present[o] || bk.elem[o] != flat {
			// Window slid (or first touch): spill the stale occupant and
			// fill from RAM — the generated prologue/refill transfer.
			if bk.present[o] && bk.dirty[o] {
				if err := storeFlat(store, r.Array, bk.elem[o], bk.vals[o]); err != nil {
					return 0, err
				}
				stats.RAMWrites++
			}
			v, err := store.Load(r.Array, evalIdx(r, env))
			if err != nil {
				return 0, err
			}
			stats.RAMReads++
			stats.PrologueLoads++
			bk.vals[o], bk.present[o], bk.dirty[o], bk.elem[o] = v, true, false, flat
		}
		stats.RegisterReads++
		return bk.vals[o], nil
	}
	writeRef := func(r *ir.ArrayRef, v int64) error {
		bk := banks[r.Key()]
		if bk == nil || !bk.entry.Hit(env) {
			stats.RAMWrites++
			return store.StoreElem(r.Array, evalIdx(r, env), v)
		}
		o, flat := slot(bk, env)
		if bk.present[o] && bk.elem[o] != flat && bk.dirty[o] {
			if err := storeFlat(store, r.Array, bk.elem[o], bk.vals[o]); err != nil {
				return err
			}
			stats.RAMWrites++
		}
		mask := int64(-1)
		if bits := r.Array.ElemBits; bits < 64 {
			mask = (int64(1) << uint(bits)) - 1
		}
		bk.vals[o], bk.present[o], bk.dirty[o], bk.elem[o] = v&mask, true, true, flat
		stats.RegisterWrites++
		return nil
	}
	var eval func(e ir.Expr) (int64, error)
	eval = func(e ir.Expr) (int64, error) {
		switch e := e.(type) {
		case *ir.IntLit:
			return e.Value, nil
		case *ir.VarRef:
			return int64(env[e.Name]), nil
		case *ir.ArrayRef:
			return readRef(e)
		case *ir.BinOp:
			l, err := eval(e.L)
			if err != nil {
				return 0, err
			}
			r, err := eval(e.R)
			if err != nil {
				return 0, err
			}
			return ir.EvalOp(e.Op, l, r)
		default:
			return 0, fmt.Errorf("codegen: unsupported expression %T", e)
		}
	}
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == p.Nest.Depth() {
			for key, bk := range banks {
				r := bk.entry.RegionOf(p.Nest, env)
				if lastRegion[key] != r {
					if lastRegion[key] >= 0 {
						if err := flushBank(bk); err != nil {
							return err
						}
					}
					lastRegion[key] = r
				}
			}
			for _, st := range p.Nest.Body {
				v, err := eval(st.RHS)
				if err != nil {
					return err
				}
				if err := writeRef(st.LHS, v); err != nil {
					return err
				}
			}
			return nil
		}
		l := p.Nest.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			if err := walk(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	// Deterministic epilogue order.
	var keys []string
	for k := range banks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := flushBank(banks[k]); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

func evalIdx(r *ir.ArrayRef, env map[string]int) []int {
	idx := make([]int, len(r.Index()))
	for d, ix := range r.Index() {
		idx[d] = ix.Eval(env)
	}
	return idx
}

func storeFlat(s *ir.Store, arr *ir.Array, flat int, v int64) error {
	idx := make([]int, len(arr.Dims))
	for d := len(arr.Dims) - 1; d >= 0; d-- {
		idx[d] = flat % arr.Dims[d]
		flat /= arr.Dims[d]
	}
	return s.StoreElem(arr, idx, v)
}

// Verify generates code for the plan, runs it on deterministic random
// inputs and compares the memory image against the reference interpreter.
func Verify(nest *ir.Nest, plan *scalarrepl.Plan, seed int64) (*RunStats, error) {
	prog, err := Generate(nest, plan)
	if err != nil {
		return nil, err
	}
	golden := ir.NewStore()
	golden.RandomizeInputs(nest, seed)
	gen := golden.Clone()
	if _, err := ir.Interp(nest, golden); err != nil {
		return nil, err
	}
	stats, err := prog.Run(gen)
	if err != nil {
		return nil, err
	}
	if eq, diff := golden.Equal(gen); !eq {
		return stats, fmt.Errorf("codegen: generated code diverged from reference semantics: %s", diff)
	}
	return stats, nil
}
