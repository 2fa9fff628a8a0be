package hls

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
)

// TestFingerprintDistinguishesKernels: every Table-1 kernel gets its own
// key, and the kernel's name and budget do not enter it.
func TestFingerprintDistinguishesKernels(t *testing.T) {
	seen := map[string]string{}
	for _, k := range kernels.All() {
		fp := KernelFingerprint(k)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s share a fingerprint", prev, k.Name)
		}
		seen[fp] = k.Name
	}

	a := kernels.Figure1()
	b := kernels.Figure1()
	b.Name = "renamed"
	b.Rmax = a.Rmax * 2
	if KernelFingerprint(a) != KernelFingerprint(b) {
		t.Error("fingerprint depends on the kernel's name or budget")
	}
}

// TestFingerprintSeesAccessPatterns: each pair of nests differs in one
// thing Analyze reads, so the two must get distinct keys.
func TestFingerprintSeesAccessPatterns(t *testing.T) {
	const base = `
kernel k;
array x[64]:8;
array y[64]:8;
array o[32]:8;
for i = 0..32 {
  o[i] = x[i] + y[i];
}
`
	x8, o8 := ir.NewArray("x", 8, 64), ir.NewArray("o", 8, 32)
	lit := func(rhs ir.Expr) *ir.Nest {
		n, err := ir.NewNest("k", []ir.Loop{{Var: "i", Lo: 0, Hi: 32, Step: 1}},
			[]*ir.Assign{{LHS: ir.Ref(o8, ir.AffVar("i")), RHS: ir.Bin(ir.OpAdd, ir.Ref(x8, ir.AffVar("i")), rhs)}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, tc := range []struct {
		what string
		a, b *ir.Nest
	}{
		{"loop bound", dsl.MustParse(base), dsl.MustParse(strings.Replace(base, "0..32", "0..16", 1))},
		{"loop step", dsl.MustParse(base), dsl.MustParse(strings.Replace(base, "0..32", "0..32 step 2", 1))},
		{"index coefficient", dsl.MustParse(base), dsl.MustParse(strings.Replace(base, "x[i]", "x[2*i]", 1))},
		{"index offset", dsl.MustParse(base), dsl.MustParse(strings.Replace(base, "x[i]", "x[i + 1]", 1))},
		{"operator", dsl.MustParse(base), dsl.MustParse(strings.Replace(base, "x[i] + y[i]", "x[i] * y[i]", 1))},
		{"literal", dsl.MustParse(strings.Replace(base, "y[i]", "3", 1)), dsl.MustParse(strings.Replace(base, "y[i]", "4", 1))},
		{"Lit(-5) against 0 - 5", lit(ir.Lit(-5)), lit(ir.Bin(ir.OpSub, ir.Lit(0), ir.Lit(5)))},
		{"element width", dsl.MustParse(base), dsl.MustParse(strings.Replace(base, "y[64]:8", "y[64]:16", 1))},
	} {
		ka, kb := kernels.Kernel{Name: "k", Rmax: 64, Nest: tc.a}, kernels.Kernel{Name: "k", Rmax: 64, Nest: tc.b}
		if KernelFingerprint(ka) == KernelFingerprint(kb) {
			t.Errorf("%s: both nests render %q", tc.what, KernelFingerprint(ka))
		}
	}
}

// kernelFingerprintFmt is KernelFingerprint's rendering written with fmt
// and its own recursion over the expression tree: the oracle the strconv
// rendering must reproduce byte for byte.
func kernelFingerprintFmt(k kernels.Kernel) string {
	var b strings.Builder
	name := func(s string) { fmt.Fprintf(&b, "%d:%s", len(s), s) }
	var node func(e ir.Expr)
	node = func(e ir.Expr) {
		switch e := e.(type) {
		case *ir.ArrayRef:
			b.WriteByte('r')
			name(e.Key())
			fmt.Fprintf(&b, "%d", e.Array.ElemBits)
			for _, d := range e.Array.Dims {
				fmt.Fprintf(&b, "x%d", d)
			}
		case *ir.BinOp:
			fmt.Fprintf(&b, "o%d", int(e.Op))
			node(e.L)
			node(e.R)
		case *ir.IntLit:
			fmt.Fprintf(&b, "#%d", e.Value)
		case *ir.VarRef:
			b.WriteByte('$')
			name(e.Name)
		}
	}
	name(k.Nest.Name)
	b.WriteByte('|')
	for _, l := range k.Nest.Loops {
		name(l.Var)
		fmt.Fprintf(&b, "%d:%d:%d;", l.Lo, l.Hi, l.Step)
	}
	b.WriteByte('|')
	for _, st := range k.Nest.Body {
		node(st.LHS)
		b.WriteByte('=')
		node(st.RHS)
		b.WriteByte(';')
	}
	return b.String()
}

// TestKernelFingerprintMatchesFmt pins KernelFingerprint against its fmt
// rendering on the seven kernels and 2,000 generated nests at the
// random-nests benchmark's generator config, and pins its cost: the
// buffer, sized once, and the result.
func TestKernelFingerprintMatchesFmt(t *testing.T) {
	ks := append(kernels.All(), kernels.Figure1())
	rng := rand.New(rand.NewSource(1))
	cfg := irgen.Config{MaxDepth: 3, MaxTrip: 24, MaxArrays: 5, MaxStmts: 4, InteriorZeroProb: 0.35}
	for i := range 2000 {
		ks = append(ks, kernels.Kernel{Name: fmt.Sprintf("rand%d", i), Nest: irgen.Nest(rng, cfg)})
	}
	for _, k := range ks {
		if got, want := KernelFingerprint(k), kernelFingerprintFmt(k); got != want {
			t.Fatalf("%s: KernelFingerprint() = %q, fmt rendering %q", k.Name, got, want)
		}
	}
	for _, k := range ks[:8] {
		if allocs := testing.AllocsPerRun(100, func() { _ = KernelFingerprint(k) }); allocs > 2 {
			t.Errorf("%s: KernelFingerprint allocates %v times, want ≤ 2", k.Name, allocs)
		}
	}
}
