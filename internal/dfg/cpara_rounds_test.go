package dfg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
)

// cparaRounds replays CPA-RA's critical-path rounds (core/cpara.go) and
// diffs Cuts against the string-set reference on each round's critical
// graph. It returns the round lines of the decision trace, which the
// caller matches against the allocator's own, so the replay provably
// visits the rounds CPA-RA does.
func cparaRounds(p *core.Problem) ([]string, error) {
	byKey := reuse.ByKey(p.Infos)
	beta := make([]int, len(p.Infos))
	satisfied := make([]bool, len(p.Infos))
	for i, inf := range p.Infos {
		beta[i] = 1
		satisfied[i] = inf.Nu <= 1
	}
	remaining := p.Rmax - len(p.Infos)
	lat := p.Lat.NodeLat(func(ref int) bool { return satisfied[ref] })
	eligible := func(n *dfg.Node) bool { return !satisfied[n.RefID] }
	var lines []string
	for round := 1; remaining > 0; round++ {
		cg, err := p.Graph.CriticalGraph(lat)
		if err != nil {
			return nil, err
		}
		cuts, err := cg.Cuts(eligible)
		want, wantErr := dfg.CutsReference(cg, eligible)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(cuts, want) {
			return nil, fmt.Errorf("round %d: Cuts = %v (%v), reference %v (%v)", round, cuts, err, want, wantErr)
		}
		if err != nil {
			lines = append(lines, fmt.Sprintf("round %d: critical paths exhausted (%v); %d registers left unused", round, err, remaining))
			break
		}
		var best dfg.Cut
		bestReq := 0
		for _, c := range cuts {
			req := 0
			for _, key := range c {
				req += byKey[key].Nu - beta[byKey[key].Group.ID]
			}
			if best == nil || req < bestReq || (req == bestReq && len(c) < len(best)) {
				best, bestReq = c, req
			}
		}
		if bestReq <= remaining {
			for _, key := range best {
				inf := byKey[key]
				remaining -= inf.Nu - beta[inf.Group.ID]
				beta[inf.Group.ID] = inf.Nu
				satisfied[inf.Group.ID] = true
			}
			lines = append(lines, fmt.Sprintf("round %d: cut %s fully replaced (CP latency %d, req %d, %d left)",
				round, best, cg.Total, bestReq, remaining))
			continue
		}
		share, extra, granted := remaining/len(best), remaining%len(best), 0
		for j, key := range best {
			inf := byKey[key]
			g := share
			if j < extra {
				g++
			}
			g = min(g, inf.Nu-beta[inf.Group.ID])
			beta[inf.Group.ID] += g
			satisfied[inf.Group.ID] = beta[inf.Group.ID] >= inf.Nu
			granted += g
		}
		remaining -= granted
		lines = append(lines, fmt.Sprintf("round %d: cut %s partially replaced, %d registers split equally (%d left)",
			round, best, granted, remaining))
		if granted == 0 {
			break
		}
	}
	return lines, nil
}

// TestCutsMatchReferenceOnCPARARounds diffs Cuts against the string-set
// reference on every CPA-RA round of the seven kernels and of 500
// generated nests, at budgets 16 and 64.
func TestCutsMatchReferenceOnCPARARounds(t *testing.T) {
	type tc struct {
		name string
		k    kernels.Kernel
	}
	var cases []tc
	for _, k := range append(kernels.All(), kernels.Figure1()) {
		cases = append(cases, tc{k.Name, k})
	}
	nests := 500
	if testing.Short() {
		nests = 50
	}
	rng := rand.New(rand.NewSource(5))
	cfg := irgen.Config{MaxDepth: 3, MaxTrip: 24, MaxArrays: 5, MaxStmts: 4, InteriorZeroProb: 0.35}
	for i := range nests {
		cases = append(cases, tc{fmt.Sprintf("nest %d", i), kernels.Kernel{Name: "rand", Nest: irgen.Nest(rng, cfg)}})
	}
	rounds := 0
	for _, c := range cases {
		for _, rmax := range []int{16, 64} {
			p, err := core.NewProblem(c.k.Nest, rmax, dfg.DefaultLatencies())
			if err != nil {
				continue // budget below the reference count
			}
			got, err := cparaRounds(p)
			if err != nil {
				t.Fatalf("%s at %d: %v", c.name, rmax, err)
			}
			alloc, err := (core.CPARA{}).Allocate(p)
			if err != nil {
				t.Fatalf("%s at %d: %v", c.name, rmax, err)
			}
			var want []string
			for _, line := range alloc.Trace() {
				if strings.HasPrefix(line, "round ") {
					want = append(want, line)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d: replayed rounds\n%s\nCPA-RA's\n%s", c.name, rmax, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			rounds += len(got)
		}
	}
	if rounds == 0 {
		t.Fatal("no CPA-RA round was checked")
	}
	t.Logf("%d rounds checked", rounds)
}
