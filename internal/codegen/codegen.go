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

// RunStats is the transfer traffic of one Run.
type RunStats struct {
	PrologueLoads  int // register fills from RAM
	EpilogueStores int // dirty registers drained at region boundaries and at the end
	RegisterReads  int
	RegisterWrites int
	RAMReads       int // uncovered reads plus fills
	RAMWrites      int // uncovered writes, write-backs of evicted registers, drains
}

// Run executes the lowered program with real values against the store:
// covered accesses go through the plan's direct-mapped register banks
// (scalarrepl.Banks), transfers happen at region boundaries exactly as the
// listing describes, and the final store is the program's memory image.
//
// Run is an independent implementation from sched.RunFuncSim (banks
// addressed by slot here, associative files there); agreement of the two
// executions and the reference interpreter is checked in tests.
func (p *Program) Run(store *ir.Store) (*RunStats, error) {
	store.BindNest(p.Nest)
	stats := &RunStats{}
	banks := scalarrepl.NewBanks(p.Plan, store)
	drained := func(stores int, err error) error {
		stats.EpilogueStores += stores
		stats.RAMWrites += stores
		return err
	}
	err := p.Nest.Each(func(env map[string]int) error {
		if err := drained(banks.Enter(env)); err != nil {
			return err
		}
		read := func(r *ir.ArrayRef) (int64, error) {
			e := p.Plan.ByKey(r.Key())
			if e == nil || !e.Hit(env) {
				stats.RAMReads++
				return store.Load(r.Array, r.IndexAt(env))
			}
			v, loads, stores, err := banks.Read(e.Info.Group.ID, env)
			stats.PrologueLoads += loads
			stats.RAMReads += loads
			stats.RAMWrites += stores
			stats.RegisterReads++
			return v, err
		}
		for _, st := range p.Nest.Body {
			v, err := ir.Eval(st.RHS, env, read)
			if err != nil {
				return err
			}
			e := p.Plan.ByKey(st.LHS.Key())
			if e == nil || !e.Hit(env) {
				stats.RAMWrites++
				if err := store.StoreElem(st.LHS.Array, st.LHS.IndexAt(env), v); err != nil {
					return err
				}
				continue
			}
			stores, err := banks.Write(e.Info.Group.ID, env, v)
			stats.RAMWrites += stores
			stats.RegisterWrites++
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := drained(banks.Drain()); err != nil {
		return nil, err
	}
	return stats, nil
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
