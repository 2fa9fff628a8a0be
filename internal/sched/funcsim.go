package sched

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/scalarrepl"
)

// FuncSimStats reports the storage traffic observed by the functional
// datapath simulation.
type FuncSimStats struct {
	RegisterHits int // accesses served by the register file
	RAMReads     int // loads issued to RAM (misses + register fills)
	RAMWrites    int // stores issued to RAM (misses + write-backs)
	Fills        int // subset of RAMReads that filled a register
	WriteBacks   int // subset of RAMWrites that drained a dirty register
	MaxLive      int // peak number of live registers across all entries
}

// regSlot is one live register: a value and its dirty bit.
type regSlot struct {
	val   int64
	dirty bool
}

// regFile models the registers granted to one reference: a bounded
// associative set over element addresses, evicting the lowest address
// first (the element that a forward-moving window abandons first).
type regFile struct {
	entry *scalarrepl.Entry
	slots map[int]*regSlot
	mask  int64
}

func newRegFile(e *scalarrepl.Entry) *regFile {
	bits := e.Info.Group.Ref.Array.ElemBits
	var mask int64 = -1
	if bits < 64 {
		mask = (int64(1) << uint(bits)) - 1
	}
	return &regFile{entry: e, slots: map[int]*regSlot{}, mask: mask}
}

func (rf *regFile) evictVictim() int {
	victim, first := 0, true
	for flat := range rf.slots {
		if first || flat < victim {
			victim, first = flat, false
		}
	}
	return victim
}

// funcSim executes the nest against the storage plan with real values.
type funcSim struct {
	nest  *ir.Nest
	plan  *scalarrepl.Plan
	store *ir.Store
	regs  map[string]*regFile
	// lastRegion tracks reuse-region changes per entry for flushing.
	lastRegion map[string]int
	stats      FuncSimStats
}

// RunFuncSim executes the plan over the store (which must hold the input
// data) and returns the traffic statistics. On return the store holds the
// final memory image, dirty registers flushed.
func RunFuncSim(nest *ir.Nest, plan *scalarrepl.Plan, store *ir.Store) (*FuncSimStats, error) {
	for _, a := range nest.Arrays() {
		if !store.Bound(a.Name) {
			store.Bind(a)
		}
	}
	fs := &funcSim{
		nest:       nest,
		plan:       plan,
		store:      store,
		regs:       map[string]*regFile{},
		lastRegion: map[string]int{},
	}
	for _, e := range plan.Order() {
		if e.Coverage > 0 {
			fs.regs[e.Info.Key()] = newRegFile(e)
			fs.lastRegion[e.Info.Key()] = -1
		}
	}
	env := map[string]int{}
	var walk func(depth int) error
	walk = func(depth int) error {
		if depth == nest.Depth() {
			return fs.iteration(env)
		}
		l := nest.Loops[depth]
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
	// Epilogue: drain every dirty register.
	for _, e := range plan.Order() {
		if rf := fs.regs[e.Info.Key()]; rf != nil {
			if err := fs.flush(rf); err != nil {
				return nil, err
			}
		}
	}
	return &fs.stats, nil
}

func (fs *funcSim) iteration(env map[string]int) error {
	// Region boundaries: flush and reset register files whose reuse region
	// changed since the previous iteration.
	for _, e := range fs.plan.Order() {
		rf := fs.regs[e.Info.Key()]
		if rf == nil {
			continue
		}
		r := e.RegionOf(fs.nest, env)
		if last := fs.lastRegion[e.Info.Key()]; last != r {
			if last >= 0 {
				if err := fs.flush(rf); err != nil {
					return err
				}
			}
			fs.lastRegion[e.Info.Key()] = r
		}
	}
	live := 0
	for _, rf := range fs.regs {
		live += len(rf.slots)
	}
	if live > fs.stats.MaxLive {
		fs.stats.MaxLive = live
	}
	for _, st := range fs.nest.Body {
		v, err := fs.eval(st.RHS, env)
		if err != nil {
			return err
		}
		if err := fs.write(st.LHS, env, v); err != nil {
			return err
		}
	}
	return nil
}

func (fs *funcSim) eval(e ir.Expr, env map[string]int) (int64, error) {
	switch e := e.(type) {
	case *ir.IntLit:
		return e.Value, nil
	case *ir.VarRef:
		return int64(env[e.Name]), nil
	case *ir.ArrayRef:
		return fs.read(e, env)
	case *ir.BinOp:
		l, err := fs.eval(e.L, env)
		if err != nil {
			return 0, err
		}
		r, err := fs.eval(e.R, env)
		if err != nil {
			return 0, err
		}
		return ir.EvalOp(e.Op, l, r)
	default:
		return 0, fmt.Errorf("funcsim: unsupported expression %T", e)
	}
}

func (fs *funcSim) read(r *ir.ArrayRef, env map[string]int) (int64, error) {
	entry := fs.plan.ByKey(r.Key())
	if entry == nil {
		return 0, fmt.Errorf("funcsim: no plan entry for %s", r.Key())
	}
	idx := evalIdx(r, env)
	if entry.Coverage == 0 || !entry.Hit(env) {
		fs.stats.RAMReads++
		return fs.store.Load(r.Array, idx)
	}
	rf := fs.regs[r.Key()]
	flat, err := r.Array.FlatIndex(idx)
	if err != nil {
		return 0, err
	}
	if slot, ok := rf.slots[flat]; ok {
		fs.stats.RegisterHits++
		return slot.val, nil
	}
	// Covered but not yet resident: fill from RAM.
	v, err := fs.store.Load(r.Array, idx)
	if err != nil {
		return 0, err
	}
	fs.stats.RAMReads++
	fs.stats.Fills++
	if err := fs.insert(rf, r.Array, flat, v, false); err != nil {
		return 0, err
	}
	return v, nil
}

func (fs *funcSim) write(r *ir.ArrayRef, env map[string]int, v int64) error {
	entry := fs.plan.ByKey(r.Key())
	if entry == nil {
		return fmt.Errorf("funcsim: no plan entry for %s", r.Key())
	}
	idx := evalIdx(r, env)
	if entry.Coverage == 0 || !entry.Hit(env) {
		fs.stats.RAMWrites++
		return fs.store.StoreElem(r.Array, idx, v)
	}
	rf := fs.regs[r.Key()]
	flat, err := r.Array.FlatIndex(idx)
	if err != nil {
		return err
	}
	fs.stats.RegisterHits++
	return fs.insert(rf, r.Array, flat, v&rf.mask, true)
}

// insert places a value into the register file, evicting (with write-back
// when dirty) if the file is at capacity.
func (fs *funcSim) insert(rf *regFile, arr *ir.Array, flat int, v int64, dirty bool) error {
	if slot, ok := rf.slots[flat]; ok {
		slot.val = v
		slot.dirty = slot.dirty || dirty
		return nil
	}
	if len(rf.slots) >= rf.entry.Coverage {
		victim := rf.evictVictim()
		if err := fs.spill(rf, arr, victim); err != nil {
			return err
		}
	}
	rf.slots[flat] = &regSlot{val: v, dirty: dirty}
	return nil
}

func (fs *funcSim) spill(rf *regFile, arr *ir.Array, flat int) error {
	slot := rf.slots[flat]
	delete(rf.slots, flat)
	if !slot.dirty {
		return nil
	}
	fs.stats.RAMWrites++
	fs.stats.WriteBacks++
	return storeFlat(fs.store, arr, flat, slot.val)
}

func (fs *funcSim) flush(rf *regFile) error {
	arr := rf.entry.Info.Group.Ref.Array
	for len(rf.slots) > 0 {
		if err := fs.spill(rf, arr, rf.evictVictim()); err != nil {
			return err
		}
	}
	return nil
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

// VerifyPlan runs the functional simulation against the reference
// interpreter on deterministic random inputs and reports any divergence —
// the machine check that the storage plan preserves program semantics.
func VerifyPlan(nest *ir.Nest, plan *scalarrepl.Plan, seed int64) (*FuncSimStats, error) {
	golden := ir.NewStore()
	golden.RandomizeInputs(nest, seed)
	hw := golden.Clone()
	if _, err := ir.Interp(nest, golden); err != nil {
		return nil, fmt.Errorf("funcsim: reference interpreter: %w", err)
	}
	stats, err := RunFuncSim(nest, plan, hw)
	if err != nil {
		return nil, err
	}
	if eq, diff := golden.Equal(hw); !eq {
		return stats, fmt.Errorf("funcsim: memory image diverged from reference semantics: %s", diff)
	}
	return stats, nil
}
