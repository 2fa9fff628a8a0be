package scalarrepl

import "repro/internal/ir"

// Banks is the direct-mapped register storage a plan describes, the one
// both the generated code (codegen) and the FSMD (rtl) execute: a bank of
// Coverage registers per covered entry, each addressed by the entry's
// SlotOf and drained to RAM whenever the entry's RegionOf changes. Every
// call reports the RAM loads and stores it issued. The functional
// simulation (sched.RunFuncSim) keeps an associative file instead, so the
// two organizations check each other.
type Banks struct {
	nest  *ir.Nest
	store *ir.Store
	// bank[i] is the bank of reference number i (ir.RefGroup.ID, its
	// position in Plan.Order); nil when the entry is uncovered.
	bank []*bank
}

// bank is one covered entry's registers.
type bank struct {
	entry  *Entry
	region int // RegionOf at the last Enter; -1 before the first
	slots  []slot
}

// slot is one register: the element it caches, by flat index, and
// whether it holds one at all and differs from RAM.
type slot struct {
	val            int64
	elem           int
	present, dirty bool
}

// NewBanks returns the empty banks of the plan's covered entries over the
// store.
func NewBanks(p *Plan, store *ir.Store) *Banks {
	b := &Banks{nest: p.Nest, store: store, bank: make([]*bank, len(p.order))}
	for i, e := range p.order {
		if e.Coverage > 0 {
			b.bank[i] = &bank{entry: e, region: -1, slots: make([]slot, e.Coverage)}
		}
	}
	return b
}

// Enter starts an iteration: every bank whose reuse region differs from
// the previous iteration's is drained, in plan order.
func (b *Banks) Enter(env map[string]int) (stores int, err error) {
	for _, bk := range b.bank {
		if bk == nil {
			continue
		}
		r := bk.entry.RegionOf(b.nest, env)
		if bk.region != r {
			if bk.region >= 0 {
				n, err := b.flush(bk)
				if stores += n; err != nil {
					return stores, err
				}
			}
			bk.region = r
		}
	}
	return stores, nil
}

// Read serves a covered read of reference id. A slot that caches another
// element (the window slid, or the first touch) writes back a dirty
// occupant and is filled from RAM.
func (b *Banks) Read(id int, env map[string]int) (v int64, loads, stores int, err error) {
	bk := b.bank[id]
	s, flat := &bk.slots[bk.entry.SlotOf(env)], bk.entry.Info.Flat.Eval(env)
	if s.present && s.elem == flat {
		return s.val, 0, 0, nil
	}
	if stores, err = b.evict(bk, s); err != nil {
		return 0, 0, stores, err
	}
	if v, err = b.store.LoadFlat(bk.entry.Info.Group.Ref.Array, flat); err != nil {
		return 0, 0, stores, err
	}
	*s = slot{val: v, elem: flat, present: true}
	return v, 1, stores, nil
}

// Write serves a covered write of reference id, writing back a dirty
// occupant that caches another element.
func (b *Banks) Write(id int, env map[string]int, v int64) (stores int, err error) {
	bk := b.bank[id]
	s, flat := &bk.slots[bk.entry.SlotOf(env)], bk.entry.Info.Flat.Eval(env)
	if s.elem != flat {
		if stores, err = b.evict(bk, s); err != nil {
			return stores, err
		}
	}
	*s = slot{val: v & bk.entry.Info.Group.Ref.Array.Mask(), elem: flat, present: true, dirty: true}
	return stores, nil
}

// Drain writes every dirty register back to RAM, in plan order: the
// epilogue after the last iteration.
func (b *Banks) Drain() (stores int, err error) {
	for _, bk := range b.bank {
		if bk != nil {
			n, err := b.flush(bk)
			if stores += n; err != nil {
				return stores, err
			}
		}
	}
	return stores, nil
}

// evict writes a slot's occupant back when it is dirty.
func (b *Banks) evict(bk *bank, s *slot) (stores int, err error) {
	if !s.present || !s.dirty {
		return 0, nil
	}
	return 1, b.store.StoreFlat(bk.entry.Info.Group.Ref.Array, s.elem, s.val)
}

// flush writes back and empties every slot of one bank.
func (b *Banks) flush(bk *bank) (stores int, err error) {
	for i := range bk.slots {
		n, err := b.evict(bk, &bk.slots[i])
		if stores += n; err != nil {
			return stores, err
		}
		bk.slots[i] = slot{}
	}
	return stores, nil
}
