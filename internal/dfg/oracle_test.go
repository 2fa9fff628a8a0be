package dfg

// Sinks returns nodes without successors (pure outputs).
func (g *Graph) Sinks() []int {
	var out []int
	for i := range g.Nodes {
		if len(g.Succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// contains reports whether the cut includes key.
func (c Cut) contains(key string) bool {
	for _, k := range c {
		if k == key {
			return true
		}
	}
	return false
}

// Disconnects verifies the defining property of a cut against the CG:
// removing the cut's reference nodes leaves no source→sink path. Exposed
// for property-based testing.
func (c *Critical) Disconnects(cut Cut) bool {
	removed := map[int]bool{}
	for i, n := range c.Graph.Nodes {
		if n.Kind == KindRef && cut.contains(n.RefKey) {
			removed[i] = true
		}
	}
	// DFS from sources avoiding removed nodes.
	g := c.Graph
	visited := make([]bool, len(g.Nodes))
	var stack []int
	for _, s := range g.Sources() {
		if !removed[s] {
			stack = append(stack, s)
			visited[s] = true
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(g.Succ[n]) == 0 {
			return false // reached a sink
		}
		for _, nxt := range g.Succ[n] {
			if !removed[nxt] && !visited[nxt] {
				visited[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return true
}
