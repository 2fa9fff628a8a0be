package dfg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// cutsReference is the string-set cut enumeration Cuts replaced, kept
// verbatim as its differential oracle: paths reduce to key sets, the
// hitting-set search extends a key map, and cuts dedupe and sort by their
// rendering.
func cutsReference(c *Critical, eligible func(*Node) bool) ([]Cut, error) {
	paths, err := c.Graph.Paths(0)
	if err != nil {
		return nil, err
	}
	// Reduce each path to its set of eligible reference keys.
	var pathKeys []map[string]bool
	for _, p := range paths {
		keys := map[string]bool{}
		for _, id := range p {
			n := c.Graph.Nodes[id]
			if n.Kind == KindRef && eligible(n) {
				keys[n.RefKey] = true
			}
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("dfg: critical path with no eligible reference nodes")
		}
		pathKeys = append(pathKeys, keys)
	}
	var cuts []Cut
	seen := map[string]bool{}
	var extend func(chosen map[string]bool)
	extend = func(chosen map[string]bool) {
		// Find the first path not yet hit.
		var uncovered map[string]bool
		for _, keys := range pathKeys {
			hit := false
			for k := range keys {
				if chosen[k] {
					hit = true
					break
				}
			}
			if !hit {
				uncovered = keys
				break
			}
		}
		if uncovered == nil {
			cut := canonicalReference(chosen)
			sig := cut.String()
			if !seen[sig] {
				seen[sig] = true
				cuts = append(cuts, cut)
			}
			return
		}
		var ks []string
		for k := range uncovered {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			chosen[k] = true
			extend(chosen)
			delete(chosen, k)
		}
	}
	extend(map[string]bool{})
	cuts = minimalOnlyReference(cuts)
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].String() < cuts[j].String() })
	return cuts, nil
}

func canonicalReference(set map[string]bool) Cut {
	var cut Cut
	for k := range set {
		cut = append(cut, k)
	}
	sort.Strings(cut)
	return cut
}

// minimalOnlyReference removes cuts that are supersets of another cut.
func minimalOnlyReference(cuts []Cut) []Cut {
	var out []Cut
	for i, c := range cuts {
		minimal := true
		for j, o := range cuts {
			if i == j || len(o) >= len(c) {
				continue
			}
			subset := true
			for _, k := range o {
				if !c.contains(k) {
					subset = false
					break
				}
			}
			if subset {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, c)
		}
	}
	return out
}

// diffCuts compares Cuts with the reference on one critical graph and
// eligibility predicate: the same cuts in the same order, or errors on
// both sides.
func diffCuts(cg *Critical, eligible func(*Node) bool) error {
	got, gotErr := cg.Cuts(eligible)
	want, wantErr := cutsReference(cg, eligible)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("Cuts error %v, reference error %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Cuts = %v, reference %v", got, want)
	}
	return nil
}

// TestCutsMatchReferenceOnRandomDAGs diffs Cuts against the string-set
// enumeration on random DAGs — letters repeat, so several nodes share a
// reference — with every reference eligible and with a random subset.
func TestCutsMatchReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		g := randomDAG(rng)
		cg, err := g.CriticalGraph(unitLat)
		if err != nil {
			t.Fatal(err)
		}
		excluded := map[int]bool{}
		for r := range g.NumRefs() {
			excluded[r] = rng.Intn(4) == 0
		}
		for _, eligible := range []func(*Node) bool{
			func(*Node) bool { return true },
			func(n *Node) bool { return !excluded[n.RefID] },
		} {
			if err := diffCuts(cg, eligible); err != nil {
				t.Fatalf("trial %d: %v\n%s", trial, err, cg.Graph)
			}
		}
	}
}
