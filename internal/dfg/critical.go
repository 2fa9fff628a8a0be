package dfg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// LatencyFunc assigns a latency (in cycles) to every node. Reference nodes
// typically cost the RAM access latency when RAM-bound and zero when
// register-bound; operation nodes cost their functional-unit latency.
type LatencyFunc func(*Node) int

// Longest computes the DAG longest-path metrics under the latency model:
// the total critical-path latency, distFrom[n] (max source→n latency,
// inclusive of n) and distTo[n] (max n→sink latency, inclusive of n).
func (g *Graph) Longest(lat LatencyFunc) (total int, distFrom, distTo []int, err error) {
	order, err := g.Topo()
	if err != nil {
		return 0, nil, nil, err
	}
	distFrom = make([]int, len(g.Nodes))
	distTo = make([]int, len(g.Nodes))
	for _, n := range order {
		best := 0
		for _, p := range g.Pred[n] {
			if distFrom[p] > best {
				best = distFrom[p]
			}
		}
		distFrom[n] = best + lat(g.Nodes[n])
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		best := 0
		for _, s := range g.Succ[n] {
			if distTo[s] > best {
				best = distTo[s]
			}
		}
		distTo[n] = best + lat(g.Nodes[n])
	}
	for n := range g.Nodes {
		if distFrom[n] > total {
			total = distFrom[n]
		}
	}
	return total, distFrom, distTo, nil
}

// Critical is the Critical Graph (CG): the subgraph of a DFG induced by the
// union of all critical (maximum-latency) paths.
type Critical struct {
	// Graph is the CG itself. Node objects are shared with the parent DFG
	// (so a node's ID is its parent index); the CG's own indices are
	// positions in Graph.Nodes.
	Graph *Graph
	// Total is the critical-path latency of the parent graph.
	Total int
	// ParentID maps CG node index → parent DFG node index.
	ParentID []int
}

// CriticalGraph extracts the CG under the latency model. A node is on some
// critical path iff distFrom+distTo-lat == total; an edge u→v is on some
// critical path iff distFrom[u]+distTo[v] == total. The CG shares the
// parent's nodes, which every graph reader treats as read-only, and its
// reference numbering.
func (g *Graph) CriticalGraph(lat LatencyFunc) (*Critical, error) {
	total, distFrom, distTo, err := g.Longest(lat)
	if err != nil {
		return nil, err
	}
	cg := &Graph{numRefs: g.numRefs, numArrays: g.numArrays, rank: g.rank}
	toCG := make([]int, len(g.Nodes))
	var parent []int
	for i := range toCG {
		toCG[i] = -1
	}
	for i, n := range g.Nodes {
		if distFrom[i]+distTo[i]-lat(n) == total {
			toCG[i] = len(cg.Nodes)
			cg.Nodes = append(cg.Nodes, n)
			parent = append(parent, i)
		}
	}
	cg.Succ = make([][]int, len(cg.Nodes))
	cg.Pred = make([][]int, len(cg.Nodes))
	for u := range g.Nodes {
		if toCG[u] < 0 {
			continue
		}
		for _, v := range g.Succ[u] {
			if toCG[v] < 0 {
				continue
			}
			if distFrom[u]+distTo[v] == total {
				cg.addEdge(toCG[u], toCG[v])
			}
		}
	}
	return &Critical{Graph: cg, Total: total, ParentID: parent}, nil
}

// Paths enumerates every source→sink path of the graph as node-index
// sequences. Loop bodies are small (a handful of statements), so the path
// count stays tiny; a guard still caps pathological inputs.
func (g *Graph) Paths(limit int) ([][]int, error) {
	if limit <= 0 {
		limit = 1 << 16
	}
	var paths [][]int
	var cur []int
	var walk func(n int) error
	walk = func(n int) error {
		cur = append(cur, n)
		defer func() { cur = cur[:len(cur)-1] }()
		if len(g.Succ[n]) == 0 {
			if len(paths) >= limit {
				return fmt.Errorf("dfg: more than %d paths", limit)
			}
			paths = append(paths, append([]int(nil), cur...))
			return nil
		}
		for _, s := range g.Succ[n] {
			if err := walk(s); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range g.Sources() {
		if err := walk(s); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// Cut is a set of reference keys whose removal disconnects every path of
// the critical graph, stored sorted for canonical comparison.
type Cut []string

func (c Cut) String() string { return "{" + strings.Join(c, ",") + "}" }

// Cuts enumerates the minimal cuts of the critical graph over its reference
// nodes, considering only references for which eligible returns true
// (CPA-RA excludes references that are already fully replaced). Each cut is
// a minimal hitting set: every source→sink path of the CG contains at least
// one node of the cut, and no proper subset has that property. Cuts come
// sorted by their String rendering.
//
// The enumeration runs on the references' key ranks (Build ranks each
// reference by its key once), so the sets it builds, probes and compares
// are small integer vectors; keys are rendered only for the result.
//
// It returns an error when some CG path contains no eligible reference — no
// cut can shorten such a path, which is the allocator's termination signal.
func (c *Critical) Cuts(eligible func(*Node) bool) ([]Cut, error) {
	paths, err := c.Graph.Paths(0)
	if err != nil {
		return nil, err
	}
	g := c.Graph
	keyOf := make([]string, g.numRefs) // rank → key
	// Reduce each path to its ascending set of eligible reference ranks.
	pathRanks := make([][]int, len(paths))
	for i, p := range paths {
		var rs []int
		for _, id := range p {
			n := g.Nodes[id]
			if n.Kind != KindRef || !eligible(n) {
				continue
			}
			r := g.rank[n.RefID]
			keyOf[r] = n.RefKey
			if j, found := slices.BinarySearch(rs, r); !found {
				rs = slices.Insert(rs, j, r)
			}
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("dfg: critical path with no eligible reference nodes")
		}
		pathRanks[i] = rs
	}
	// chosen[r] is 1 while rank r is in the set being extended; as a byte
	// string it is also the set's canonical identity.
	chosen := make([]byte, g.numRefs)
	seen := map[string]bool{}
	var cuts [][]int
	var extend func()
	extend = func() {
		// Find the first path not yet hit.
		var uncovered []int
		for _, rs := range pathRanks {
			hit := false
			for _, r := range rs {
				if chosen[r] == 1 {
					hit = true
					break
				}
			}
			if !hit {
				uncovered = rs
				break
			}
		}
		if uncovered == nil {
			if !seen[string(chosen)] {
				seen[string(chosen)] = true
				var cut []int
				for r, in := range chosen {
					if in == 1 {
						cut = append(cut, r)
					}
				}
				cuts = append(cuts, cut)
			}
			return
		}
		for _, r := range uncovered { // ascending rank: ascending key
			chosen[r] = 1
			extend()
			chosen[r] = 0
		}
	}
	extend()
	type rendered struct {
		cut Cut
		s   string
	}
	var out []rendered
	for _, rs := range minimalOnly(cuts) {
		cut := make(Cut, len(rs))
		for i, r := range rs {
			cut[i] = keyOf[r]
		}
		out = append(out, rendered{cut, cut.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].s < out[j].s })
	res := make([]Cut, len(out))
	for i, r := range out {
		res[i] = r.cut
	}
	return res, nil
}

// minimalOnly removes rank sets that are supersets of another. Each set
// is ascending, so containment is one merge walk.
func minimalOnly(sets [][]int) [][]int {
	var out [][]int
	for i, c := range sets {
		minimal := true
		for j, o := range sets {
			if i != j && len(o) < len(c) && subset(o, c) {
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

// subset reports whether ascending set a is contained in ascending set b.
func subset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
