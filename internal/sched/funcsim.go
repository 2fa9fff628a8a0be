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
// first (the element that a forward-moving window abandons first). It
// stays apart from the direct-mapped banks (scalarrepl.Banks) the
// generated code and the FSMD share, so the two organizations check each
// other.
type regFile struct {
	entry *scalarrepl.Entry
	slots map[int]*regSlot
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
	store.BindNest(nest)
	fs := &funcSim{
		nest:       nest,
		plan:       plan,
		store:      store,
		regs:       map[string]*regFile{},
		lastRegion: map[string]int{},
	}
	for _, e := range plan.Order() {
		if e.Coverage > 0 {
			fs.regs[e.Info.Key()] = &regFile{entry: e, slots: map[int]*regSlot{}}
			fs.lastRegion[e.Info.Key()] = -1
		}
	}
	if err := nest.Each(fs.iteration); err != nil {
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
	read := func(r *ir.ArrayRef) (int64, error) { return fs.read(r, env) }
	for _, st := range fs.nest.Body {
		v, err := ir.Eval(st.RHS, env, read)
		if err != nil {
			return err
		}
		if err := fs.write(st.LHS, env, v); err != nil {
			return err
		}
	}
	return nil
}

func (fs *funcSim) read(r *ir.ArrayRef, env map[string]int) (int64, error) {
	entry := fs.plan.ByKey(r.Key())
	if entry == nil {
		return 0, fmt.Errorf("funcsim: no plan entry for %s", r.Key())
	}
	flat, err := r.Array.FlatIndex(r.IndexAt(env))
	if err != nil {
		return 0, err
	}
	if entry.Coverage == 0 || !entry.Hit(env) {
		fs.stats.RAMReads++
		return fs.store.LoadFlat(r.Array, flat)
	}
	rf := fs.regs[r.Key()]
	if slot, ok := rf.slots[flat]; ok {
		fs.stats.RegisterHits++
		return slot.val, nil
	}
	// Covered but not yet resident: fill from RAM.
	v, err := fs.store.LoadFlat(r.Array, flat)
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
	flat, err := r.Array.FlatIndex(r.IndexAt(env))
	if err != nil {
		return err
	}
	if entry.Coverage == 0 || !entry.Hit(env) {
		fs.stats.RAMWrites++
		return fs.store.StoreFlat(r.Array, flat, v)
	}
	fs.stats.RegisterHits++
	return fs.insert(fs.regs[r.Key()], r.Array, flat, v&r.Array.Mask(), true)
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
	return fs.store.StoreFlat(arr, flat, slot.val)
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
