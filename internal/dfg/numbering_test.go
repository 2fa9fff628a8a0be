package dfg

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
)

// TestRefNumbering pins the numbering contract every later stage indexes
// by, on the seven kernels and 1,000 generated nests: a reference node's
// RefID is the position of its key in Nest.RefGroups (which is also the
// group's ID), NumRefs counts the groups, and ArrayIDs number the arrays
// densely in first-use order.
func TestRefNumbering(t *testing.T) {
	var nests []*ir.Nest
	for _, k := range append(kernels.All(), kernels.Figure1()) {
		nests = append(nests, k.Nest)
	}
	rng := rand.New(rand.NewSource(2))
	cfgs := []irgen.Config{{}, {MaxDepth: 3, MaxTrip: 24, MaxArrays: 5, MaxStmts: 4, InteriorZeroProb: 0.35}}
	for i := range 1000 {
		nests = append(nests, irgen.Nest(rng, cfgs[i%2]))
	}
	for i, n := range nests {
		g, err := Build(n)
		if err != nil {
			t.Fatal(err)
		}
		groups := n.RefGroups()
		if g.NumRefs() != len(groups) {
			t.Fatalf("nest %d (%s): NumRefs %d, RefGroups %d", i, n.Name, g.NumRefs(), len(groups))
		}
		pos := map[string]int{}
		for p, grp := range groups {
			if grp.ID != p {
				t.Fatalf("nest %d (%s): group %s at position %d has ID %d", i, n.Name, grp.Key, p, grp.ID)
			}
			pos[grp.Key] = p
		}
		arrays := map[string]int{}
		for _, nd := range g.Nodes {
			if nd.Kind != KindRef {
				continue
			}
			if want, ok := pos[nd.RefKey]; !ok || nd.RefID != want {
				t.Fatalf("nest %d (%s): node %s has RefID %d, RefGroups position %d", i, n.Name, nd.RefKey, nd.RefID, want)
			}
			a, ok := arrays[nd.Ref.Array.Name]
			if !ok {
				a = len(arrays)
				arrays[nd.Ref.Array.Name] = a
			}
			if nd.ArrayID != a {
				t.Fatalf("nest %d (%s): node %s has ArrayID %d, want %d", i, n.Name, nd.RefKey, nd.ArrayID, a)
			}
		}
		if g.NumArrays() != len(arrays) {
			t.Fatalf("nest %d (%s): NumArrays %d, arrays %d", i, n.Name, g.NumArrays(), len(arrays))
		}
	}
}
