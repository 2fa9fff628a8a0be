package dse

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/simcache"
)

// TestSimCachePanicDoesNotPoisonEntry: a simulation panic must be memoized
// as the entry's error, not consume the entry and hand (nil, nil) to every
// later point sharing the key — and the cache-free path must report the
// same error text, so -nocache output stays byte-identical on failures.
func TestSimCachePanicDoesNotPoisonEntry(t *testing.T) {
	k := kernels.Figure1()
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate against a nest whose innermost loop outruns the plan's:
	// HitInner fails loudly (panics) on the extra iteration. The graph
	// comes from the valid nest — the walker panics before it is read.
	wider := *k.Nest
	wider.Loops = append([]ir.Loop(nil), k.Nest.Loops...)
	wider.Loops[len(wider.Loops)-1].Hi++
	g, err := dfg.Build(k.Nest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := hls.SimCtx{Kernel: k.Name}
	_, direct := simDirect(ctx, &wider, g, plan, sched.DefaultConfig())
	if direct == nil || !strings.HasPrefix(direct.Error(), "simulation panic: ") {
		t.Fatalf("cache-free error %v does not record the panic", direct)
	}
	c := newSimCache(simcache.New(), nil)
	for call := 0; call < 2; call++ {
		res, err := c.simulate(ctx, &wider, g, plan, sched.DefaultConfig())
		if res != nil || err == nil {
			t.Fatalf("call %d: res=%v err=%v, want nil result and memoized panic error", call, res, err)
		}
		if err.Error() != direct.Error() {
			t.Fatalf("call %d: cached error %q, cache-free error %q", call, err, direct)
		}
	}
	if c.size() != 1 {
		t.Errorf("cache holds %d entries, want the single poisoned-key entry", c.size())
	}
}
