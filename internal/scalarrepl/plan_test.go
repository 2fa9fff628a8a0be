package scalarrepl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
)

const figure1Src = `
kernel figure1;
array a[30]:8;
array b[30][20]:8;
array c[20]:8;
array d[2][30]:8;
array e[2][20][30]:8;
for i = 0..2 {
  for j = 0..20 {
    for k = 0..30 {
      d[i][k] = a[k] * b[k][j];
      e[i][j][k] = c[j] * d[i][k];
    }
  }
}
`

func figure1Plan(t *testing.T, beta map[string]int) *Plan {
	t.Helper()
	n := dsl.MustParse(figure1Src)
	infos, err := reuse.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(n, infos, betaVec(infos, beta))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// betaVec lays a β map keyed by reference out in infos order, the form
// NewPlan takes; a reference the map omits gets β=0.
func betaVec(infos []*reuse.Info, byKey map[string]int) []int {
	beta := make([]int, len(infos))
	for i, inf := range infos {
		beta[i] = byKey[inf.Key()]
	}
	return beta
}

// cpaBeta is the paper's CPA-RA outcome for Figure 1 at Rmax=64.
func cpaBeta() map[string]int {
	return map[string]int{
		"a[k]": 16, "b[k][j]": 16, "c[j]": 1, "d[i][k]": 30, "e[i][j][k]": 1,
	}
}

func env(i, j, k int) map[string]int { return map[string]int{"i": i, "j": j, "k": k} }

// TestCoverageRules pins the coverage derivation for the CPA-RA example.
func TestCoverageRules(t *testing.T) {
	p := figure1Plan(t, cpaBeta())
	want := map[string]int{
		"a[k]":       16, // partial window
		"b[k][j]":    16, // partial window
		"c[j]":       0,  // β=1 with ν=20: staging only
		"d[i][k]":    30, // full
		"e[i][j][k]": 0,  // no reuse
	}
	for key, cov := range want {
		if got := p.ByKey(key).Coverage; got != cov {
			t.Errorf("coverage(%s) = %d, want %d", key, got, cov)
		}
	}
	if !p.ByKey("d[i][k]").FullyReplaced() {
		t.Error("d should be fully replaced")
	}
	if p.ByKey("a[k]").FullyReplaced() {
		t.Error("a is only partially replaced")
	}
	if p.TotalRegisters() != 64 {
		t.Errorf("total = %d, want 64", p.TotalRegisters())
	}
}

// TestHitPattern pins the paper's per-iteration residency: a and b hit for
// k<16 at every j, d always, c and e never.
func TestHitPattern(t *testing.T) {
	p := figure1Plan(t, cpaBeta())
	for _, j := range []int{0, 7, 19} {
		for k := 0; k < 30; k++ {
			ev := env(1, j, k)
			if got, want := p.ByKey("a[k]").Hit(ev), k < 16; got != want {
				t.Fatalf("a hit at j=%d k=%d = %v, want %v", j, k, got, want)
			}
			if got, want := p.ByKey("b[k][j]").Hit(ev), k < 16; got != want {
				t.Fatalf("b hit at j=%d k=%d = %v, want %v", j, k, got, want)
			}
			if !p.ByKey("d[i][k]").Hit(ev) {
				t.Fatalf("d must always hit at j=%d k=%d", j, k)
			}
			if p.ByKey("c[j]").Hit(ev) || p.ByKey("e[i][j][k]").Hit(ev) {
				t.Fatalf("c and e must never hit")
			}
		}
	}
}

// TestPRRAHitPattern: β(d)=12 makes exactly the k<12 iterations hit — the
// paper's "12 out of the 30 iterations of k" sentence.
func TestPRRAHitPattern(t *testing.T) {
	p := figure1Plan(t, map[string]int{
		"a[k]": 30, "b[k][j]": 1, "c[j]": 20, "d[i][k]": 12, "e[i][j][k]": 1,
	})
	hits := 0
	for k := 0; k < 30; k++ {
		if p.ByKey("d[i][k]").Hit(env(0, 3, k)) {
			hits++
			if k >= 12 {
				t.Fatalf("d hit at k=%d with coverage 12", k)
			}
		}
	}
	if hits != 12 {
		t.Fatalf("d hits %d iterations, want 12", hits)
	}
	// c has full coverage: hits every iteration.
	for _, ev := range []map[string]int{env(0, 0, 0), env(1, 19, 29)} {
		if !p.ByKey("c[j]").Hit(ev) {
			t.Fatal("fully covered c must hit")
		}
	}
}

// TestSlidingWindowOrdinals: FIR-style x[i+k] has window ordinal k at every
// i — the rotating-register model.
func TestSlidingWindowOrdinals(t *testing.T) {
	n := dsl.MustParse(`
array x[40]:8;
array c[8]:8;
array y[32]:16;
for i = 0..32 {
  for k = 0..8 {
    y[i] = y[i] + c[k] * x[i + k];
  }
}
`)
	infos, err := reuse.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(n, infos, betaVec(infos, map[string]int{"x[i + k]": 5, "c[k]": 8, "y[i]": 1}))
	if err != nil {
		t.Fatal(err)
	}
	x := p.ByKey("x[i + k]")
	for i := 0; i < 32; i += 9 {
		for k := 0; k < 8; k++ {
			ev := map[string]int{"i": i, "k": k}
			if got := x.WindowOrdinal(ev); got != k {
				t.Fatalf("window ordinal at i=%d k=%d = %d, want %d", i, k, got, k)
			}
			if got, want := x.Hit(ev), k < 5; got != want {
				t.Fatalf("x hit at i=%d k=%d = %v, want %v", i, k, got, want)
			}
		}
	}
	// y is an accumulator: ν=1, β=1 → fully replaced, hits always.
	y := p.ByKey("y[i]")
	if !y.FullyReplaced() || !y.Hit(map[string]int{"i": 3, "k": 4}) {
		t.Error("accumulator y must be register-resident")
	}
	if y.WriteFirst {
		t.Error("y is read before written (accumulation)")
	}
}

// TestWriteFirstDetection: d is written before read; inputs are read-only.
func TestWriteFirstDetection(t *testing.T) {
	p := figure1Plan(t, cpaBeta())
	if !p.ByKey("d[i][k]").WriteFirst {
		t.Error("d should be write-first")
	}
	if p.ByKey("a[k]").WriteFirst {
		t.Error("a is read-only")
	}
}

// TestAliasGuard: when two distinct references touch an array that one of
// them writes, both lose register residency.
func TestAliasGuard(t *testing.T) {
	n := dsl.MustParse(`
array x[34]:8;
array y[32]:8;
for i = 0..32 {
  for k = 0..2 {
    x[i] = x[i + k] + 1;
    y[i] = x[i + 2];
  }
}
`)
	infos, err := reuse.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	beta := make([]int, len(infos))
	for i, inf := range infos {
		beta[i] = inf.Nu
	}
	p, err := NewPlan(n, infos, beta)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Order() {
		if e.Info.Group.Ref.Array.Name == "x" {
			if !e.Aliased || e.Coverage != 0 {
				t.Errorf("%s: aliased=%v coverage=%d, want true/0", e.Info.Key(), e.Aliased, e.Coverage)
			}
		}
	}
	if p.ByKey("y[i]").Aliased {
		t.Error("y is written by only one reference: not aliased")
	}
}

// TestRegions: d's registers persist across j (its reuse loop) and flush
// when i changes.
func TestRegions(t *testing.T) {
	n := dsl.MustParse(figure1Src)
	p := figure1Plan(t, cpaBeta())
	d := p.ByKey("d[i][k]")
	if r0, r1 := d.RegionOf(n, env(0, 3, 5)), d.RegionOf(n, env(0, 17, 2)); r0 != r1 {
		t.Errorf("d regions differ across j: %d vs %d", r0, r1)
	}
	if r0, r1 := d.RegionOf(n, env(0, 3, 5)), d.RegionOf(n, env(1, 3, 5)); r0 == r1 {
		t.Errorf("d regions must differ across i")
	}
	// a's reuse level is 0: single global region.
	a := p.ByKey("a[k]")
	if a.RegionOf(n, env(0, 0, 0)) != a.RegionOf(n, env(1, 19, 29)) {
		t.Error("a should have one global region")
	}
}

// TestHitKeysSignature: the class signature distinguishes the k<16 and
// k≥16 iteration classes and nothing else.
func TestHitKeysSignature(t *testing.T) {
	p := figure1Plan(t, cpaBeta())
	sigs := map[string]bool{}
	for j := 0; j < 20; j++ {
		for k := 0; k < 30; k++ {
			sigs[p.HitKeys(env(1, j, k))] = true
		}
	}
	if len(sigs) != 2 {
		t.Fatalf("expected 2 iteration classes, got %d", len(sigs))
	}
}

func TestNewPlanErrors(t *testing.T) {
	n := dsl.MustParse(figure1Src)
	infos, err := reuse.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(n, infos, nil); err == nil {
		t.Error("missing β entries should fail")
	}
	if _, err := NewPlan(n, infos, append(betaVec(infos, cpaBeta()), 1)); err == nil {
		t.Error("a β entry beyond the references should fail")
	}
	bad := cpaBeta()
	bad["a[k]"] = 0
	if _, err := NewPlan(n, infos, betaVec(infos, bad)); err == nil {
		t.Error("β=0 should fail")
	}
	if _, err := NewPlan(&ir.Nest{}, infos, betaVec(infos, cpaBeta())); err == nil {
		t.Error("empty nest should fail")
	}
}

// TestFingerprint pins the cache-key contract: plans from identical β
// vectors share a fingerprint, any β or coverage change breaks it, and the
// HitInner fast path agrees with the map-environment Hit everywhere.
func TestFingerprint(t *testing.T) {
	a := figure1Plan(t, cpaBeta())
	b := figure1Plan(t, cpaBeta())
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical β vectors produced different fingerprints:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	changed := cpaBeta()
	changed["a[k]"] = 8
	c := figure1Plan(t, changed)
	if a.Fingerprint() == c.Fingerprint() {
		t.Errorf("different β vectors share fingerprint %s", a.Fingerprint())
	}
}

// TestHitInnerMatchesHit cross-checks the innermost-position residency fast
// path against the environment-based test over the whole iteration space.
func TestHitInnerMatchesHit(t *testing.T) {
	p := figure1Plan(t, cpaBeta())
	for _, e := range p.Order() {
		for i := 0; i < 2; i++ {
			for j := 0; j < 20; j++ {
				for k := 0; k < 30; k++ {
					if got, want := e.HitInner(k), e.Hit(env(i, j, k)); got != want {
						t.Fatalf("%s at (%d,%d,%d): HitInner=%t Hit=%t", e.Info.Key(), i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestNewPlanRejectsBadSteps: the window enumeration advances the innermost
// variable by Step — a hand-built nest with a non-positive step must error
// out instead of hanging it.
func TestNewPlanRejectsBadSteps(t *testing.T) {
	nest := dsl.MustParse(figure1Src)
	for _, step := range []int{0, -1} {
		bad := &ir.Nest{Name: "bad", Loops: append([]ir.Loop(nil), nest.Loops...), Body: nest.Body}
		bad.Loops[len(bad.Loops)-1].Step = step
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		beta := make([]int, len(infos))
		for i := range beta {
			beta[i] = 1
		}
		if _, err := NewPlan(bad, infos, beta); err == nil {
			t.Fatalf("NewPlan accepted step %d", step)
		}
	}
}

// windowOracle is the first-touch enumeration the closed-form window
// replaced: one innermost-loop sweep with every outer loop at its lower
// bound, recording the first-touch ordinal of each element, plus a residue
// scan of the covered ordinals. It is the differential oracle of the
// closed forms.
type windowOracle struct {
	relConst, innerCoef int
	ordinal             map[int]int // window-relative flat index → first-touch ordinal
	rotating            bool
}

func newWindowOracle(nest *ir.Nest, e *Entry) windowOracle {
	base := map[string]int{}
	for _, l := range nest.Loops {
		base[l.Var] = l.Lo
	}
	inner := nest.Loops[nest.Depth()-1]
	aff := e.FlatAffine()
	o := windowOracle{innerCoef: aff.Coeff(inner.Var), ordinal: map[int]int{}}
	o.relConst = aff.Eval(base) - o.innerCoef*inner.Lo
	for v := inner.Lo; v < inner.Hi; v += inner.Step {
		flat := o.relConst + o.innerCoef*v
		if _, ok := o.ordinal[flat]; !ok {
			o.ordinal[flat] = len(o.ordinal)
		}
	}
	if e.Coverage > 0 {
		seen := map[int]bool{}
		o.rotating = true
		for flat, ord := range o.ordinal {
			if ord >= e.Coverage {
				continue
			}
			r := ((flat % e.Coverage) + e.Coverage) % e.Coverage
			if seen[r] {
				o.rotating = false
				break
			}
			seen[r] = true
		}
	}
	return o
}

// checkWindow asserts that every closed-form window query of every plan
// entry — WindowSize, FullyReplaced, RotatingSlots, and WindowOrdinal and
// HitInner at each innermost position — equals the enumeration's answer,
// that HitInner holds at exactly the first InnerHits positions, and that
// innermost values outside the plan's loop panic.
func checkWindow(t *testing.T, label string, nest *ir.Nest, p *Plan) {
	t.Helper()
	inner := nest.Loops[nest.Depth()-1]
	// Outer loops sit at their last iteration: the window reads only the
	// innermost variable.
	env := map[string]int{}
	for _, l := range nest.Loops {
		env[l.Var] = l.Lo + max(0, l.Trip()-1)*l.Step
	}
	outside := []int{inner.Lo - 1, inner.Hi, inner.Lo + inner.Step*inner.Trip()}
	if inner.Step > 1 {
		outside = append(outside, inner.Lo+1)
	}
	for _, e := range p.Order() {
		o := newWindowOracle(nest, e)
		where := fmt.Sprintf("%s: %s (coverage %d)", label, e.Info.Key(), e.Coverage)
		if got, want := e.WindowSize(), len(o.ordinal); got != want {
			t.Fatalf("%s: WindowSize = %d, enumeration %d", where, got, want)
		}
		if got, want := e.FullyReplaced(), e.Coverage > 0 && e.Coverage >= len(o.ordinal); got != want {
			t.Fatalf("%s: FullyReplaced = %t, enumeration %t", where, got, want)
		}
		if got, want := e.RotatingSlots(), o.rotating; got != want {
			t.Fatalf("%s: RotatingSlots = %t, enumeration %t", where, got, want)
		}
		hits := e.InnerHits()
		if hits < 0 || hits > inner.Trip() {
			t.Fatalf("%s: InnerHits = %d outside [0, %d]", where, hits, inner.Trip())
		}
		for pos, v := 0, inner.Lo; v < inner.Hi; pos, v = pos+1, v+inner.Step {
			want := o.ordinal[o.relConst+o.innerCoef*v]
			env[inner.Var] = v
			if got := e.WindowOrdinal(env); got != want {
				t.Fatalf("%s: WindowOrdinal at %s=%d is %d, enumeration %d", where, inner.Var, v, got, want)
			}
			hit := e.Coverage > 0 && want < e.Coverage
			if got := e.HitInner(v); got != hit {
				t.Fatalf("%s: HitInner(%d) = %t, enumeration %t", where, v, got, hit)
			}
			if got := pos < hits; got != hit {
				t.Fatalf("%s: position %d below InnerHits %d is %t, enumeration hit %t", where, pos, hits, got, hit)
			}
		}
		for _, v := range outside {
			env[inner.Var] = v
			mustPanic(t, where+": WindowOrdinal outside the loop", func() { e.WindowOrdinal(env) })
			if e.Coverage > 0 {
				mustPanic(t, where+": HitInner outside the loop", func() { e.HitInner(v) })
			}
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: did not panic", what)
		}
	}()
	f()
}

// TestWindowMatchesEnumerationOnKernels checks the closed-form window
// against the enumeration on every Table-1 kernel (plus the running
// example) under every allocator's plan.
func TestWindowMatchesEnumerationOnKernels(t *testing.T) {
	for _, k := range append(kernels.All(), kernels.Figure1()) {
		prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range core.All() {
			alloc, err := alg.Allocate(prob)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlan(k.Nest, prob.Infos, alloc.Beta)
			if err != nil {
				t.Fatal(err)
			}
			checkWindow(t, k.Name+"/"+alg.Name(), k.Nest, p)
		}
	}
}

// TestWindowMatchesEnumerationOnRandomNests extends the check to random
// programs biased toward interior zero coefficients, with random β.
func TestWindowMatchesEnumerationOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		nest := irgen.Nest(rng, irgen.Config{InteriorZeroProb: 0.35})
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		beta := make([]int, len(infos))
		for i, inf := range infos {
			beta[i] = 1 + rng.Intn(inf.Nu+2)
		}
		p, err := NewPlan(nest, infos, beta)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		checkWindow(t, fmt.Sprintf("trial %d", trial), nest, p)
	}
}

// TestWindowEdgeCases sweeps every β of every reference on the shapes the
// closed forms special-case: a negative innermost coefficient, Step > 1,
// innermost coefficient 0, one-trip and zero-trip innermost loops, and
// coverage larger than the window.
func TestWindowEdgeCases(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"negative", `
array x[40]:8;
array y[8]:16;
for i = 0..8 {
  for k = 0..30 {
    y[i] = y[i] + x[i - k + 31];
  }
}`},
		{"step", `
array x[90]:8;
array c[40]:8;
array y[8]:16;
for i = 0..8 {
  for k = 1..31 step 3 {
    y[i] = y[i] + c[k] * x[2 * i - 2 * k + 70];
  }
}`},
		{"zero-coefficient", `
array c[20]:8;
array a[30]:8;
array d[20][30]:8;
for j = 0..20 {
  for k = 0..30 {
    d[j][k] = a[k] * c[j];
  }
}`},
		{"one-trip", `
array x[40]:8;
array y[32]:16;
for i = 0..32 {
  for k = 5..6 {
    y[i] = y[i] + x[i + k];
  }
}`},
		{"coverage-over-window", `
array b[6][8]:8;
array o[4][6][8]:16;
for i = 0..4 {
  for j = 0..6 {
    for k = 0..8 {
      o[i][j][k] = b[j][k] * 3;
    }
  }
}`},
	} {
		nest := dsl.MustParse(tc.src)
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		empty := &ir.Nest{Name: nest.Name, Loops: append([]ir.Loop(nil), nest.Loops...), Body: nest.Body}
		empty.Loops[len(empty.Loops)-1].Hi = empty.Loops[len(empty.Loops)-1].Lo
		for si, sweep := range infos {
			for b := 1; b <= sweep.Nu+2; b++ {
				beta := make([]int, len(infos))
				for i, inf := range infos {
					beta[i] = inf.Nu
				}
				beta[si] = b
				for _, n := range []*ir.Nest{nest, empty} {
					p, err := NewPlan(n, infos, beta)
					if err != nil {
						t.Fatal(err)
					}
					checkWindow(t, fmt.Sprintf("%s/trip %d/β(%s)=%d", tc.name, n.Loops[len(n.Loops)-1].Trip(), sweep.Key(), b), n, p)
				}
			}
		}
	}
}

// TestFingerprintBytes pins the plan fingerprint's exact bytes — they key
// the sweep's simulation memo and name simcache entries — against the
// fmt rendering it replaced, over every allocator's plan of every kernel,
// and pins its cost at no more than two allocations.
func TestFingerprintBytes(t *testing.T) {
	oracle := func(p *Plan) string {
		s := ""
		for _, e := range p.Order() {
			s += fmt.Sprintf("%s=β%d,c%d,w%t,a%t;", e.Info.Key(), e.Beta, e.Coverage, e.WriteFirst, e.Aliased)
		}
		return s
	}
	for _, k := range append([]kernels.Kernel{kernels.Figure1()}, kernels.All()...) {
		for _, rmax := range []int{16, 64, 1024} {
			prob, err := core.NewProblem(k.Nest, rmax, dfg.DefaultLatencies())
			if err != nil {
				continue // budget below the reference count
			}
			for _, alg := range core.All() {
				alloc, err := alg.Allocate(prob)
				if err != nil {
					t.Fatal(err)
				}
				p, err := NewPlan(k.Nest, prob.Infos, alloc.Beta)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := p.Fingerprint(), oracle(p); got != want {
					t.Errorf("%s/%s/%d: Fingerprint() = %q, want %q", k.Name, alg.Name(), rmax, got, want)
				}
			}
		}
	}
	p := figure1Plan(t, cpaBeta())
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Fingerprint() }); allocs > 2 {
		t.Errorf("Plan.Fingerprint allocates %v times, want ≤ 2", allocs)
	}
}
