package kernels

import (
	"sync"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/reuse"
)

func TestAllKernelsValidate(t *testing.T) {
	ks := append(All(), Figure1())
	if len(ks) != 7 {
		t.Fatalf("expected 6 kernels + figure1, got %d", len(ks))
	}
	for _, k := range ks {
		if err := k.Nest.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
		if k.Rmax != DefaultRmax {
			t.Errorf("%s: Rmax = %d, want %d", k.Name, k.Rmax, DefaultRmax)
		}
		if k.Description == "" {
			t.Errorf("%s: missing description", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"figure1", "fir", "decfir", "imi", "mat", "pat", "bic"} {
		k, err := ByName(name)
		if err != nil || k.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, k.Name, err)
		}
	}
	_, err := ByName("nope")
	if want := `kernels: unknown kernel "nope" (have figure1, fir, decfir, imi, mat, pat, bic)`; err == nil || err.Error() != want {
		t.Errorf("ByName(nope) error = %v, want %q", err, want)
	}
}

// TestByNameMatchesConstructors: every name resolves to the kernel its
// constructor builds, and each call returns its own nest.
func TestByNameMatchesConstructors(t *testing.T) {
	for _, k := range append([]Kernel{Figure1()}, All()...) {
		got, err := ByName(k.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", k.Name, err)
		}
		if got.Description != k.Description || got.Rmax != k.Rmax {
			t.Errorf("ByName(%s) = %+v, want %+v", k.Name, got, k)
		}
		if g, w := dsl.Format(got.Nest), dsl.Format(k.Nest); g != w {
			t.Errorf("ByName(%s) formats as\n%s\nwant\n%s", k.Name, g, w)
		}
		again, _ := ByName(k.Name)
		if again.Nest == got.Nest {
			t.Errorf("ByName(%s) returned the same nest twice", k.Name)
		}
	}
}

// TestShared: every name resolves to one instance per process, the
// kernel its constructor builds, even when first resolved on concurrent
// goroutines; later calls parse nothing, and an unknown name fails as in
// ByName.
func TestShared(t *testing.T) {
	names := []string{"figure1", "fir", "decfir", "imi", "mat", "pat", "bic"}
	got := make([][]Kernel, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				k, err := Shared(name)
				if err != nil {
					t.Error(err)
				}
				got[g] = append(got[g], k)
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		want, _ := ByName(name)
		k := got[0][i]
		if k.Name != name || k.Description != want.Description || k.Rmax != want.Rmax ||
			dsl.Format(k.Nest) != dsl.Format(want.Nest) {
			t.Errorf("Shared(%s) = %+v, want the kernel ByName builds", name, k)
		}
		for g := range got {
			if got[g][i].Nest != k.Nest {
				t.Errorf("Shared(%s) returned two nests", name)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { Shared("bic") }); allocs != 0 {
		t.Errorf("Shared(bic) after first use allocates %.0f times, want 0", allocs)
	}
	_, err := Shared("nope")
	if _, want := ByName("nope"); err == nil || err.Error() != want.Error() {
		t.Errorf("Shared(nope) error = %v, want %v", err, want)
	}
}

// TestByNameBuildsOnlyTheNamedKernel: resolving one kernel costs what
// its constructor costs, not a parse of every kernel.
func TestByNameBuildsOnlyTheNamedKernel(t *testing.T) {
	byName := testing.AllocsPerRun(20, func() {
		if _, err := ByName("bic"); err != nil {
			t.Fatal(err)
		}
	})
	direct := testing.AllocsPerRun(20, func() { BIC() })
	if byName != direct {
		t.Errorf("ByName(bic) allocates %.0f times, BIC() %.0f", byName, direct)
	}
}

// TestRegisterRequirements pins the full scalar-replacement register
// requirement ν of every reference of every kernel — the sizes that drive
// all three allocators.
func TestRegisterRequirements(t *testing.T) {
	want := map[string]map[string]int{
		"fir":    {"x[i + k]": 32, "c[k]": 32, "y[i]": 1},
		"decfir": {"x[2*i + k]": 64, "c[k]": 64, "y[i]": 1},
		"mat":    {"a[i][k]": 32, "b[k][j]": 1024, "c[i][j]": 1},
		"imi":    {"a[i][j]": 4096, "b[i][j]": 4096, "o[t][i][j]": 1},
		"pat":    {"s[i + k]": 64, "p[k]": 64, "m[i]": 1},
		"bic":    {"img[i + m][j + n]": 512, "tpl[m][n]": 64, "r[i][j]": 1},
	}
	for _, k := range All() {
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		exp := want[k.Name]
		if len(infos) != len(exp) {
			t.Errorf("%s: %d references, want %d", k.Name, len(infos), len(exp))
		}
		for _, inf := range infos {
			nu, ok := exp[inf.Key()]
			if !ok {
				t.Errorf("%s: unexpected reference %s", k.Name, inf.Key())
				continue
			}
			if inf.Nu != nu {
				t.Errorf("%s: ν(%s) = %d, want %d", k.Name, inf.Key(), inf.Nu, nu)
			}
		}
	}
}

// TestAccumulatorsAreRegisterResident: every kernel's output accumulator
// (when it has one) needs exactly one register for full replacement.
func TestAccumulatorsAreRegisterResident(t *testing.T) {
	accs := map[string]string{
		"fir": "y[i]", "decfir": "y[i]", "mat": "c[i][j]", "pat": "m[i]", "bic": "r[i][j]",
	}
	for _, k := range All() {
		key, ok := accs[k.Name]
		if !ok {
			continue
		}
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		inf := reuse.ByKey(infos)[key]
		if inf == nil {
			t.Fatalf("%s: missing accumulator %s", k.Name, key)
		}
		if inf.Nu != 1 || inf.ReuseLevel < 0 {
			t.Errorf("%s: accumulator %s has ν=%d level=%d, want ν=1 with reuse", k.Name, key, inf.Nu, inf.ReuseLevel)
		}
	}
}

// TestKernelSemanticsSmoke: each kernel runs under the interpreter and
// produces a non-trivial output image.
func TestKernelSemanticsSmoke(t *testing.T) {
	for _, k := range All() {
		s := ir.NewStore()
		s.RandomizeInputs(k.Nest, 17)
		if _, err := ir.Interp(k.Nest, s); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		// The written output array must contain at least one non-zero.
		out := k.Nest.Body[len(k.Nest.Body)-1].LHS.Array.Name
		nonzero := false
		for _, v := range s.Raw(out) {
			if v != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Errorf("%s: output array %q is all zeros", k.Name, out)
		}
	}
}

// TestFIRMatchesDirectConvolution cross-checks the FIR kernel against a
// straightforward Go convolution.
func TestFIRMatchesDirectConvolution(t *testing.T) {
	k := FIR()
	s := ir.NewStore()
	s.RandomizeInputs(k.Nest, 23)
	x := append([]int64(nil), s.Raw("x")...)
	c := append([]int64(nil), s.Raw("c")...)
	if _, err := ir.Interp(k.Nest, s); err != nil {
		t.Fatal(err)
	}
	mask := int64(1<<24 - 1)
	for i := 0; i < 992; i += 97 {
		var acc int64
		for kk := 0; kk < 32; kk++ {
			acc = (acc + c[kk]*x[i+kk]) & mask
		}
		if got := s.Raw("y")[i]; got != acc {
			t.Fatalf("y[%d] = %d, want %d", i, got, acc)
		}
	}
}

// TestRegisterPressureMotivation: every kernel's total full-replacement
// requirement exceeds the 64-register budget — the pressure that motivates
// the paper.
func TestRegisterPressureMotivation(t *testing.T) {
	for _, k := range All() {
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		if total := reuse.TotalFullReplacementRegisters(infos); total <= k.Rmax {
			t.Errorf("%s: total ν=%d fits the %d budget; kernel exerts no pressure", k.Name, total, k.Rmax)
		}
	}
}
