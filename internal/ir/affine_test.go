package ir

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomAffine builds a small random affine function over variables i, j, k.
func randomAffine(rng *rand.Rand) Affine {
	a := AffConst(rng.Intn(21) - 10)
	for _, v := range []string{"i", "j", "k"} {
		if rng.Intn(2) == 1 {
			a = a.Add(AffTerm(rng.Intn(9)-4, v, 0))
		}
	}
	return a
}

func randomEnv(rng *rand.Rand) map[string]int {
	return map[string]int{
		"i": rng.Intn(50) - 25,
		"j": rng.Intn(50) - 25,
		"k": rng.Intn(50) - 25,
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			for i := range args {
				switch args[i].Kind() {
				case reflect.Int64:
					args[i] = reflect.ValueOf(rng.Int63n(1 << 20))
				default:
					args[i] = reflect.ValueOf(rng.Int63())
				}
			}
		},
	}
}

func TestAffineAddEvalHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		a, b := randomAffine(rng), randomAffine(rng)
		env := randomEnv(rng)
		if got, want := a.Add(b).Eval(env), a.Eval(env)+b.Eval(env); got != want {
			t.Fatalf("(%v + %v)(%v) = %d, want %d", a, b, env, got, want)
		}
		if got, want := a.Sub(b).Eval(env), a.Eval(env)-b.Eval(env); got != want {
			t.Fatalf("(%v - %v)(%v) = %d, want %d", a, b, env, got, want)
		}
	}
}

func TestAffineScaleEvalHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 500; n++ {
		a := randomAffine(rng)
		k := rng.Intn(11) - 5
		env := randomEnv(rng)
		if got, want := a.Scale(k).Eval(env), k*a.Eval(env); got != want {
			t.Fatalf("(%d*%v)(%v) = %d, want %d", k, a, env, got, want)
		}
	}
}

func TestAffineAddCommutativeAndCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 500; n++ {
		a, b := randomAffine(rng), randomAffine(rng)
		ab, ba := a.Add(b), b.Add(a)
		if !ab.Equal(ba) {
			t.Fatalf("%v + %v not commutative: %v vs %v", a, b, ab, ba)
		}
		// a - a must cancel exactly, leaving no stale zero coefficients.
		d := a.Sub(a)
		if !d.IsConst() || d.Const != 0 {
			t.Fatalf("%v - itself = %v, want 0", a, d)
		}
		for v, c := range d.Coeffs {
			if c == 0 {
				t.Fatalf("zero coefficient for %q retained after cancellation", v)
			}
		}
	}
}

func TestAffineRangeOver(t *testing.T) {
	loops := []Loop{
		{Var: "i", Lo: 0, Hi: 4, Step: 1},  // i in 0..3
		{Var: "k", Lo: 1, Hi: 10, Step: 2}, // k in {1,3,5,7,9}
	}
	cases := []struct {
		a      Affine
		lo, hi int
	}{
		{AffVar("i"), 0, 3},
		{AffVar("k"), 1, 9},
		{AffVar("i").Add(AffVar("k")), 1, 12},
		{AffVar("i").Scale(-1).Add(AffConst(5)), 2, 5},
		{AffTerm(2, "i", 1), 1, 7},
		{AffConst(42), 42, 42},
	}
	for _, tc := range cases {
		lo, hi := tc.a.RangeOver(loops)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%v range = [%d,%d], want [%d,%d]", tc.a, lo, hi, tc.lo, tc.hi)
		}
	}
	// Exhaustive cross-check: the affine range must equal the enumerated range.
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 200; n++ {
		a := randomAffine(rng)
		gotLo, gotHi := a.RangeOver(loops)
		first := true
		var lo, hi int
		for i := 0; i < 4; i++ {
			for k := 1; k < 10; k += 2 {
				v := a.Eval(map[string]int{"i": i, "k": k})
				if first || v < lo {
					lo = v
				}
				if first || v > hi {
					hi = v
				}
				first = false
			}
		}
		if gotLo != lo || gotHi != hi {
			t.Fatalf("%v range = [%d,%d], enumerated [%d,%d]", a, gotLo, gotHi, lo, hi)
		}
	}
}

func TestAffineString(t *testing.T) {
	cases := []struct {
		a    Affine
		want string
	}{
		{AffConst(0), "0"},
		{AffConst(-7), "-7"},
		{AffVar("i"), "i"},
		{AffTerm(2, "i", 1), "2*i + 1"},
		{AffVar("i").Add(AffTerm(-1, "j", 0)), "i - j"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestAffineQuickScaleDistributes(t *testing.T) {
	// k*(a+b) == k*a + k*b via Eval on arbitrary env, checked structurally.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAffine(rng), randomAffine(rng)
		k := rng.Intn(9) - 4
		return a.Add(b).Scale(k).Equal(a.Scale(k).Add(b.Scale(k)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
