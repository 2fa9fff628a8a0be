package scalarrepl

import (
	"slices"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/reuse"
)

// TestBanks drives one bank — a[i][k] with two rotating registers, its
// reuse region the value of i — through every transfer of the
// direct-mapped bank set, checking the value and the RAM loads and stores
// each call reports, then the memory image after the drain. The bank
// serves whatever access it is handed; the steps pick elements that
// collide in a slot to make the window slide.
func TestBanks(t *testing.T) {
	n := dsl.MustParse(`
kernel banks;
array a[2][4]:8;
for i = 0..2 {
  for j = 0..2 {
    for k = 0..4 {
      a[i][k] = a[i][k] + 1;
    }
  }
}
`)
	infos, err := reuse.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(n, infos, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if e := p.Order()[0]; e.Coverage != 2 || !e.RotatingSlots() || e.Info.ReuseLevel != 1 {
		t.Fatalf("a[i][k]: coverage %d, rotating %v, reuse level %d; want 2, true, 1",
			e.Coverage, e.RotatingSlots(), e.Info.ReuseLevel)
	}
	store := ir.NewStore()
	store.Bind(p.Order()[0].Info.Group.Ref.Array)
	raw := store.Raw("a")
	for f := range raw {
		raw[f] = int64(10 + f) // a[i][k] starts at 10 + 4i + k
	}
	b := NewBanks(p, store)
	const (
		enter = iota
		read
		write
		drain
	)
	steps := []struct {
		name          string
		op            int
		i, k          int
		v             int64 // the value written, or the value read back
		loads, stores int
	}{
		{"first region", enter, 0, 0, 0, 0, 0},
		{"first fill", read, 0, 0, 10, 1, 0},
		{"hit", read, 0, 0, 10, 0, 0},
		{"write the resident element", write, 0, 0, 0x1ff, 0, 0},
		{"hit the masked value", read, 0, 0, 0xff, 0, 0},
		{"read slide evicts dirty a[0][0]", read, 0, 2, 12, 1, 1},
		{"write an empty slot", write, 0, 1, 7, 0, 0},
		{"write slide evicts dirty a[0][1]", write, 0, 3, 9, 0, 1},
		{"same region", enter, 0, 3, 0, 0, 0},
		{"region flush drains dirty a[0][3]", enter, 1, 0, 0, 0, 1},
		{"fill after the flush", read, 1, 0, 14, 1, 0},
		{"write in the new region", write, 1, 1, 5, 0, 0},
		{"final drain", drain, 0, 0, 0, 0, 1},
	}
	for _, s := range steps {
		env := map[string]int{"i": s.i, "j": 0, "k": s.k}
		var (
			v             int64
			loads, stores int
			err           error
		)
		switch s.op {
		case enter:
			stores, err = b.Enter(env)
		case read:
			v, loads, stores, err = b.Read(0, env)
		case write:
			stores, err = b.Write(0, env, s.v)
			v = s.v
		case drain:
			stores, err = b.Drain()
		}
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if v != s.v || loads != s.loads || stores != s.stores {
			t.Errorf("%s: value %d, %d loads, %d stores; want %d, %d, %d",
				s.name, v, loads, stores, s.v, s.loads, s.stores)
		}
	}
	if want := []int64{0xff, 7, 12, 9, 14, 5, 16, 17}; !slices.Equal(raw, want) {
		t.Errorf("memory image %v, want %v", raw, want)
	}
}
