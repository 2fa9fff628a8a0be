package hls

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/irgen"
	"repro/internal/kernels"
)

// TestFingerprintDistinguishesKernels: every Table-1 kernel gets its own
// content address, and the address is renaming-invariant.
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

	an, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	if an.Fingerprint() != KernelFingerprint(a) {
		t.Error("Analysis.Fingerprint differs from the kernel fingerprint")
	}
}

// TestFingerprintSeesAccessPatterns: changing a loop bound or an index
// coefficient must change the address.
func TestFingerprintSeesAccessPatterns(t *testing.T) {
	base := dsl.MustParse(`
kernel base;
array x[64]:8;
array o[32]:8;
for i = 0..32 {
  o[i] = x[i];
}
`)
	bound := dsl.MustParse(`
kernel bound;
array x[64]:8;
array o[32]:8;
for i = 0..16 {
  o[i] = x[i];
}
`)
	coeff := dsl.MustParse(`
kernel coeff;
array x[64]:8;
array o[32]:8;
for i = 0..32 {
  o[i] = x[2*i];
}
`)
	mk := func(n string) kernels.Kernel { return kernels.Kernel{Name: n, Rmax: 64} }
	kb, kbound, kcoeff := mk("base"), mk("bound"), mk("coeff")
	kb.Nest, kbound.Nest, kcoeff.Nest = base, bound, coeff
	if KernelFingerprint(kb) == KernelFingerprint(kbound) {
		t.Error("loop bound change not reflected in fingerprint")
	}
	if KernelFingerprint(kb) == KernelFingerprint(kcoeff) {
		t.Error("index coefficient change not reflected in fingerprint")
	}
}

// TestEncodeDecodeRoundTrip: decode(encode(analysis)) reproduces the reuse
// summary exactly, for every kernel.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, k := range kernels.All() {
		an, err := Analyze(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		back, err := DecodeAnalysis(k, an.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", k.Name, err)
		}
		if !reflect.DeepEqual(an.Infos, back.Infos) {
			t.Errorf("%s: decoded infos diverge", k.Name)
		}
		if an.Graph.Fingerprint() != back.Graph.Fingerprint() {
			t.Errorf("%s: decoded graph diverges", k.Name)
		}
	}
}

// TestDecodeAcceptsInEnvelopeProfile pins the trust model (DESIGN.md §11,
// §13): decode checks a blob's shape and per-level envelope, not its
// provenance, so a profile edited within the envelope — FIR's first group
// 992 1 1 → 991 1 1 — decodes without error to what the blob says, not to
// a fresh analysis.
func TestDecodeAcceptsInEnvelopeProfile(t *testing.T) {
	fir := kernels.FIR()
	an, err := Analyze(fir)
	if err != nil {
		t.Fatal(err)
	}
	blob := string(an.Encode())
	edited := strings.Replace(blob, "\n992 1 1\n", "\n991 1 1\n", 1)
	if edited == blob {
		t.Fatalf("FIR blob %q has no 992 1 1 group", blob)
	}
	back, err := DecodeAnalysis(fir, []byte(edited))
	if err != nil {
		t.Fatalf("in-envelope edit rejected: %v", err)
	}
	if got := back.Infos[0].Distinct; !reflect.DeepEqual(got, []int{991, 1, 1}) {
		t.Fatalf("decoded profile %v, want the blob's [991 1 1]", got)
	}
}

// TestDecodeRejectsMismatches: version, cross-kernel, and corrupt blobs
// all fail decode instead of producing a wrong analysis.
func TestDecodeRejectsMismatches(t *testing.T) {
	fig, fir := kernels.Figure1(), kernels.FIR()
	an, err := Analyze(fig)
	if err != nil {
		t.Fatal(err)
	}
	blob := an.Encode()

	if _, err := DecodeAnalysis(fir, blob); err == nil {
		t.Error("figure1 blob decoded against fir")
	}
	stale := []byte("A0" + string(blob[2:]))
	if _, err := DecodeAnalysis(fig, stale); err == nil {
		t.Error("stale version accepted")
	}
	corrupt := []byte(strings.Replace(string(blob), " ", " 999999 ", 1))
	if _, err := DecodeAnalysis(fig, corrupt); err == nil {
		t.Error("corrupt blob accepted")
	}
	if _, err := DecodeAnalysis(fig, nil); err == nil {
		t.Error("empty blob accepted")
	}
}

// kernelFingerprintFmt is the fmt rendering KernelFingerprint replaced.
// The fingerprint names analysis-cache entries and disk blobs, so the
// strconv rendering must reproduce its bytes exactly.
func kernelFingerprintFmt(k kernels.Kernel) string {
	var b strings.Builder
	b.WriteString("fe1|")
	for _, l := range k.Nest.Loops {
		fmt.Fprintf(&b, "%d:%d:%d;", l.Lo, l.Hi, l.Step)
	}
	b.WriteByte('|')
	for _, g := range k.Nest.RefGroups() {
		r := g.Ref
		fmt.Fprintf(&b, "r%d,w%d", g.Reads, g.Writes)
		for dim, ix := range r.Index() {
			fmt.Fprintf(&b, "@%d[%d", r.Array.Dims[dim], ix.Const)
			for _, l := range k.Nest.Loops {
				fmt.Fprintf(&b, ",%d", ix.Coeff(l.Var))
			}
			b.WriteByte(']')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// TestKernelFingerprintMatchesFmt pins KernelFingerprint against its fmt
// rendering on the seven kernels and 2,000 generated nests at the
// random-nests benchmark's generator config, and pins its cost.
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
	// Beyond grouping the references, the rendering costs its buffer and
	// the result.
	fig := kernels.Figure1()
	groups := testing.AllocsPerRun(100, func() { _ = fig.Nest.RefGroups() })
	if allocs := testing.AllocsPerRun(100, func() { _ = KernelFingerprint(fig) }); allocs > groups+2 {
		t.Errorf("KernelFingerprint allocates %v times, RefGroups %v; want ≤ 2 more", allocs, groups)
	}
}
