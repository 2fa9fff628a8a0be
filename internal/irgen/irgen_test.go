package irgen

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/reuse"
)

func TestNestDeterministicPerSeed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Nest(rand.New(rand.NewSource(seed)), Config{})
		b := Nest(rand.New(rand.NewSource(seed)), Config{})
		if a.String() != b.String() {
			t.Fatalf("seed %d produced two different nests:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

func TestNestValidByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := Nest(rng, Config{})
		if err := n.Validate(); err != nil {
			t.Fatalf("nest %d invalid: %v\n%s", i, err, n)
		}
		for _, u := range n.RefUses() {
			if k, s := u.Ref.Key(), u.Ref.String(); k != s {
				t.Fatalf("nest %d: reference key %q, rendering %q", i, k, s)
			}
		}
	}
}

func TestNestRespectsConfigBounds(t *testing.T) {
	cfg := Config{MaxDepth: 2, MaxTrip: 4, MaxArrays: 3, MaxStmts: 2, MaxExpr: 2}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := Nest(rng, cfg)
		if d := n.Depth(); d < 1 || d > cfg.MaxDepth {
			t.Fatalf("nest %d depth %d outside 1..%d", i, d, cfg.MaxDepth)
		}
		for _, l := range n.Loops {
			if trip := l.Trip(); trip < 1 || l.Hi > cfg.MaxTrip+1 {
				t.Fatalf("nest %d loop %s has bound %d under MaxTrip %d", i, l.Var, l.Hi, cfg.MaxTrip)
			}
		}
		if len(n.Body) < 1 || len(n.Body) > cfg.MaxStmts {
			t.Fatalf("nest %d has %d statements, want 1..%d", i, len(n.Body), cfg.MaxStmts)
		}
	}
}

func TestNestDefaultsApplied(t *testing.T) {
	got := Config{}.withDefaults()
	want := Config{MaxDepth: 3, MaxTrip: 6, MaxArrays: 4, MaxStmts: 3, MaxExpr: 3}
	if got != want {
		t.Fatalf("withDefaults() = %+v, want %+v", got, want)
	}
	// Partial configs keep the caller's values.
	got = Config{MaxDepth: 1, MaxStmts: 5}.withDefaults()
	if got.MaxDepth != 1 || got.MaxStmts != 5 || got.MaxTrip != 6 {
		t.Fatalf("partial config mangled: %+v", got)
	}
}

// TestNestFeedsAnalyses checks that generated nests are consumable by the
// front-end the generator exists to fuzz: every reference gets a reuse
// summary with a sane ν, and array shapes cover every access.
func TestNestFeedsAnalyses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		n := Nest(rng, Config{})
		infos, err := reuse.Analyze(n)
		if err != nil {
			t.Fatalf("nest %d: reuse analysis failed: %v\n%s", i, err, n)
		}
		if len(infos) == 0 {
			t.Fatalf("nest %d has no references:\n%s", i, n)
		}
		for _, inf := range infos {
			if inf.Nu < 1 {
				t.Fatalf("nest %d: %s has ν=%d", i, inf.Key(), inf.Nu)
			}
		}
	}
}

func TestNestExercisesVariety(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	depths := map[int]bool{}
	ops := map[ir.OpKind]bool{}
	for i := 0; i < 100; i++ {
		n := Nest(rng, Config{})
		depths[n.Depth()] = true
		for _, st := range n.Body {
			ir.WalkExpr(st.RHS, func(e ir.Expr) {
				if b, ok := e.(*ir.BinOp); ok {
					ops[b.Op] = true
				}
			})
		}
	}
	if len(depths) < 2 {
		t.Errorf("100 nests only produced depths %v", depths)
	}
	if len(ops) < 5 {
		t.Errorf("100 nests only used %d operator kinds", len(ops))
	}
	if ops[ir.OpDiv] {
		t.Error("generator emitted OpDiv, which differential fuzzing excludes")
	}
}
