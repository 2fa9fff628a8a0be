package dfg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
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

func buildFigure1(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(dsl.MustParse(figure1Src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// unitLat is the paper's abstract model with every reference RAM-bound:
// refs cost one access, operations one cycle.
func unitLat(n *Node) int { return 1 }

// ramLat treats references in regs as free, everything else as unitLat.
func ramLat(regs map[string]bool) LatencyFunc {
	return func(n *Node) int {
		if n.Kind == KindRef && regs[n.RefKey] {
			return 0
		}
		return 1
	}
}

// TestFigure2aDFGShape pins the DFG of the running example (Figure 2(a)):
// a,b → op1 → d → op2 → e with c → op2, where d is a single shared node.
func TestFigure2aDFGShape(t *testing.T) {
	g := buildFigure1(t)
	// 5 ref nodes + 2 op nodes.
	refs, ops := 0, 0
	for _, n := range g.Nodes {
		if n.Kind == KindRef {
			refs++
		} else {
			ops++
		}
	}
	if refs != 5 || ops != 2 {
		t.Fatalf("refs/ops = %d/%d, want 5/2\n%s", refs, ops, g)
	}
	find := func(key string) *Node {
		for _, n := range g.Nodes {
			if n.Kind == KindRef && n.RefKey == key {
				return n
			}
		}
		t.Fatalf("missing ref node %s", key)
		return nil
	}
	d := find("d[i][k]")
	if !d.IsWrite || !d.IsRead {
		t.Errorf("d node should be both written and read: %+v", d)
	}
	if len(g.Pred[d.ID]) != 1 || len(g.Succ[d.ID]) != 1 {
		t.Errorf("d should have one pred (op1) and one succ (op2)")
	}
	e := find("e[i][j][k]")
	if !e.IsWrite || e.IsRead || len(g.Succ[e.ID]) != 0 {
		t.Errorf("e should be a pure sink write: %+v", e)
	}
	for _, key := range []string{"a[k]", "b[k][j]", "c[j]"} {
		n := find(key)
		if n.IsWrite || len(g.Pred[n.ID]) != 0 {
			t.Errorf("%s should be a pure input", key)
		}
	}
	if len(g.Sources()) != 3 || len(g.Sinks()) != 1 {
		t.Errorf("sources/sinks = %d/%d, want 3/1", len(g.Sources()), len(g.Sinks()))
	}
}

func TestTopoOrderValid(t *testing.T) {
	g := buildFigure1(t)
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(g.Nodes))
	for i, n := range order {
		pos[n] = i
	}
	for u := range g.Nodes {
		for _, v := range g.Succ[u] {
			if pos[u] >= pos[v] {
				t.Fatalf("edge %d->%d violates topological order", u, v)
			}
		}
	}
}

func TestLongestPathFigure1(t *testing.T) {
	g := buildFigure1(t)
	total, _, _, err := g.Longest(unitLat)
	if err != nil {
		t.Fatal(err)
	}
	// a(1) op1(1) d(1) op2(1) e(1) = 5.
	if total != 5 {
		t.Fatalf("critical path latency = %d, want 5", total)
	}
	// Promote d to a register: path shrinks to 4.
	total, _, _, err = g.Longest(ramLat(map[string]bool{"d[i][k]": true}))
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Fatalf("with d in registers latency = %d, want 4", total)
	}
}

// TestFigure2bCriticalGraph pins the CG contents: c[j] is off the critical
// path, everything else is on it.
func TestFigure2bCriticalGraph(t *testing.T) {
	g := buildFigure1(t)
	cg, err := g.CriticalGraph(unitLat)
	if err != nil {
		t.Fatal(err)
	}
	keys := cg.Graph.RefKeys()
	want := []string{"a[k]", "b[k][j]", "d[i][k]", "e[i][j][k]"}
	if strings.Join(keys, "|") != strings.Join(want, "|") {
		t.Fatalf("CG refs = %v, want %v", keys, want)
	}
	if cg.Total != 5 {
		t.Errorf("CG total = %d, want 5", cg.Total)
	}
}

// TestFigure2bCuts pins the paper's cut set {{a,b},{d},{e}}.
func TestFigure2bCuts(t *testing.T) {
	g := buildFigure1(t)
	cg, err := g.CriticalGraph(unitLat)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := cg.Cuts(func(*Node) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cuts {
		got = append(got, c.String())
	}
	want := []string{"{a[k],b[k][j]}", "{d[i][k]}", "{e[i][j][k]}"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("cuts = %v, want %v", got, want)
	}
	for _, c := range cuts {
		if !cg.Disconnects(c) {
			t.Errorf("cut %v does not disconnect the CG", c)
		}
	}
}

// TestCutsRespectEligibility: once e is fully allocated it may not appear
// in cuts; once d is also allocated only {a,b} remains.
func TestCutsRespectEligibility(t *testing.T) {
	g := buildFigure1(t)
	full := map[string]bool{"e[i][j][k]": true}
	cg, err := g.CriticalGraph(ramLat(full))
	if err != nil {
		t.Fatal(err)
	}
	eligible := func(n *Node) bool { return !full[n.RefKey] }
	cuts, err := cg.Cuts(eligible)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		if c.contains("e[i][j][k]") {
			t.Fatalf("ineligible reference appeared in cut %v", c)
		}
	}
	full["d[i][k]"] = true
	cg, err = g.CriticalGraph(ramLat(full))
	if err != nil {
		t.Fatal(err)
	}
	cuts, err = cg.Cuts(eligible)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || cuts[0].String() != "{a[k],b[k][j]}" {
		t.Fatalf("cuts = %v, want only {a[k],b[k][j]}", cuts)
	}
}

// TestCutsErrorWhenUncuttable: if every reference on some critical path is
// ineligible, Cuts reports it (the allocator's stop condition).
func TestCutsErrorWhenUncuttable(t *testing.T) {
	g := buildFigure1(t)
	cg, err := g.CriticalGraph(unitLat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.Cuts(func(*Node) bool { return false }); err == nil {
		t.Fatal("expected uncuttable error")
	}
}

// TestAccumulatorSplitsNodes: y[i] = y[i] + x produces separate read and
// write nodes for y (the loop-carried value) and stays acyclic.
func TestAccumulatorSplitsNodes(t *testing.T) {
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
	g, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	var yNodes []*Node
	for _, nd := range g.Nodes {
		if nd.Kind == KindRef && nd.RefKey == "y[i]" {
			yNodes = append(yNodes, nd)
		}
	}
	if len(yNodes) != 2 {
		t.Fatalf("y[i] should have 2 nodes (read + write), got %d", len(yNodes))
	}
	if _, err := g.Topo(); err != nil {
		t.Fatalf("accumulator graph must stay acyclic: %v", err)
	}
}

// TestWriteAfterWriteOrdering: two writes to the same reference are chained.
func TestWriteAfterWriteOrdering(t *testing.T) {
	x := ir.NewArray("x", 8, 8)
	y := ir.NewArray("y", 8, 8)
	n := &ir.Nest{
		Name:  "waw",
		Loops: []ir.Loop{{Var: "i", Lo: 0, Hi: 8, Step: 1}},
		Body: []*ir.Assign{
			{LHS: ir.Ref(y, ir.AffVar("i")), RHS: ir.Ref(x, ir.AffVar("i"))},
			{LHS: ir.Ref(y, ir.AffVar("i")), RHS: ir.Lit(0)},
		},
	}
	g, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	var writes []*Node
	for _, nd := range g.Nodes {
		if nd.Kind == KindRef && nd.RefKey == "y[i]" && nd.IsWrite {
			writes = append(writes, nd)
		}
	}
	if len(writes) != 2 {
		t.Fatalf("want 2 write nodes for y[i], got %d", len(writes))
	}
	// The first write must precede the second.
	found := false
	for _, s := range g.Succ[writes[0].ID] {
		if s == writes[1].ID {
			found = true
		}
	}
	if !found {
		t.Fatal("missing write-after-write ordering edge")
	}
}

// randomDAG builds a random layered DAG with ref nodes (letters) and op
// nodes for property testing. Letters repeat after 26 reference nodes, and
// nodes of one letter share a reference number, as Build numbers keys.
func randomDAG(rng *rand.Rand) *Graph {
	g := newGraph()
	layers := rng.Intn(4) + 2
	var prev []int
	refID := 0
	ids := map[string]int{}
	for l := 0; l < layers; l++ {
		width := rng.Intn(3) + 1
		var cur []int
		for w := 0; w < width; w++ {
			var n *Node
			if rng.Intn(2) == 0 {
				key := string(rune('a' + refID%26))
				if _, ok := ids[key]; !ok {
					ids[key] = len(ids)
				}
				n = &Node{Kind: KindRef, RefKey: key, RefID: ids[key], IsRead: true}
				refID++
			} else {
				n = &Node{Kind: KindOp, Op: ir.OpAdd}
			}
			g.addNode(n)
			cur = append(cur, n.ID)
		}
		for _, c := range cur {
			if len(prev) == 0 {
				continue
			}
			// connect to 1..2 random nodes of the previous layer
			for e := 0; e < rng.Intn(2)+1; e++ {
				g.addEdge(prev[rng.Intn(len(prev))], c)
			}
		}
		prev = cur
	}
	g.numRefs, g.numArrays = len(ids), 1
	if err := g.finish(); err != nil {
		panic(err)
	}
	return g
}

// TestCutsPropertyRandomDAGs: on random DAGs every enumerated cut
// disconnects the CG and is minimal (dropping any single key reconnects).
func TestCutsPropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		g := randomDAG(rng)
		cg, err := g.CriticalGraph(unitLat)
		if err != nil {
			t.Fatal(err)
		}
		cuts, err := cg.Cuts(func(n *Node) bool { return true })
		if err != nil {
			continue // some CG path has no ref nodes at all: fine
		}
		for _, c := range cuts {
			checked++
			if !cg.Disconnects(c) {
				t.Fatalf("trial %d: cut %v fails to disconnect CG:\n%s", trial, c, cg.Graph)
			}
			for drop := range c {
				sub := append(append(Cut{}, c[:drop]...), c[drop+1:]...)
				if len(sub) > 0 && cg.Disconnects(sub) {
					t.Fatalf("trial %d: cut %v not minimal (%v suffices)", trial, c, sub)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("property test never exercised a cut")
	}
}

// TestCriticalGraphContainsAllMaxPaths: every path of the CG has exactly the
// critical latency, and every critical path of the DFG survives in the CG.
func TestCriticalGraphProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		g := randomDAG(rng)
		total, _, _, err := g.Longest(unitLat)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := g.CriticalGraph(unitLat)
		if err != nil {
			t.Fatal(err)
		}
		if cg.Total != total {
			t.Fatalf("CG total %d != DFG total %d", cg.Total, total)
		}
		paths, err := cg.Graph.Paths(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatal("CG has no paths")
		}
		for _, p := range paths {
			lat := 0
			for _, id := range p {
				lat += unitLat(cg.Graph.Nodes[id])
			}
			if lat != total {
				t.Fatalf("CG path latency %d != critical %d (path %v)", lat, total, p)
			}
		}
		// Count critical paths in the original graph and in the CG: equal.
		allPaths, err := g.Paths(0)
		if err != nil {
			t.Fatal(err)
		}
		nCrit := 0
		for _, p := range allPaths {
			lat := 0
			for _, id := range p {
				lat += unitLat(g.Nodes[id])
			}
			if lat == total {
				nCrit++
			}
		}
		if nCrit != len(paths) {
			t.Fatalf("critical path count %d != CG path count %d", nCrit, len(paths))
		}
	}
}

func TestGraphStringDeterministic(t *testing.T) {
	g := buildFigure1(t)
	if g.String() != g.String() {
		t.Fatal("String not deterministic")
	}
	if !strings.Contains(g.String(), "d[i][k]") {
		t.Fatal("String missing node labels")
	}
}

func TestBuildRejectsInvalidNest(t *testing.T) {
	if _, err := Build(&ir.Nest{Name: "bad"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestPathsLimit(t *testing.T) {
	g := buildFigure1(t)
	if _, err := g.Paths(1); err == nil {
		t.Fatal("expected path-limit error")
	}
}

// TestAliasDependenceEdges: distinct references to the same array must be
// ordered by memory-dependence edges so schedulers cannot reorder an
// access past a possibly-aliasing write (regression for a bug found by
// differential fuzzing against the FSMD executor).
func TestAliasDependenceEdges(t *testing.T) {
	x := ir.NewArray("x", 8, 16)
	y := ir.NewArray("y", 8, 8)
	n := &ir.Nest{
		Name:  "alias",
		Loops: []ir.Loop{{Var: "i", Lo: 0, Hi: 8, Step: 1}},
		Body: []*ir.Assign{
			// read x[i+1], write x[i] (WAR), then read x[i] (RAW via alias
			// rules: same key as the write → forwarding stays legal), then
			// read x[i+2] after the write (RAW edge required).
			{LHS: ir.Ref(x, ir.AffVar("i")), RHS: ir.Ref(x, ir.AffVar("i").Add(ir.AffConst(1)))},
			{LHS: ir.Ref(y, ir.AffVar("i")), RHS: ir.Bin(ir.OpAdd, ir.Ref(x, ir.AffVar("i")), ir.Ref(x, ir.AffVar("i").Add(ir.AffConst(2))))},
		},
	}
	g, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	find := func(key string, write bool) *Node {
		for _, nd := range g.Nodes {
			if nd.Kind == KindRef && nd.RefKey == key && nd.IsWrite == write {
				return nd
			}
		}
		t.Fatalf("missing node %s (write=%v)\n%s", key, write, g)
		return nil
	}
	hasEdge := func(from, to *Node) bool {
		for _, s := range g.Succ[from.ID] {
			if s == to.ID {
				return true
			}
		}
		return false
	}
	rdBefore := find("x[i + 1]", false)
	wr := find("x[i]", true)
	rdAfter := find("x[i + 2]", false)
	if !hasEdge(rdBefore, wr) {
		t.Errorf("missing WAR edge x[i+1] read → x[i] write\n%s", g)
	}
	if !hasEdge(wr, rdAfter) {
		t.Errorf("missing RAW edge x[i] write → x[i+2] read\n%s", g)
	}
	// The same-key read of x[i] forwards from the write node (no new node).
	xi := 0
	for _, nd := range g.Nodes {
		if nd.Kind == KindRef && nd.RefKey == "x[i]" {
			xi++
		}
	}
	if xi != 1 {
		t.Errorf("x[i] should be one forwarding node, got %d", xi)
	}
	if _, err := g.Topo(); err != nil {
		t.Fatalf("dependence edges created a cycle: %v", err)
	}
}

// TestAliasReadNotReusedAcrossWrite: a read of the same key before and
// after an aliasing write must become two nodes with the second ordered
// after the write.
func TestAliasReadNotReusedAcrossWrite(t *testing.T) {
	x := ir.NewArray("x", 8, 16)
	y := ir.NewArray("y", 8, 8)
	n := &ir.Nest{
		Name:  "aliasreuse",
		Loops: []ir.Loop{{Var: "i", Lo: 0, Hi: 8, Step: 1}},
		Body: []*ir.Assign{
			{LHS: ir.Ref(y, ir.AffVar("i")), RHS: ir.Ref(x, ir.AffVar("i").Add(ir.AffConst(2)))},
			{LHS: ir.Ref(x, ir.AffVar("i")), RHS: ir.Lit(1)},
			{LHS: ir.Ref(y, ir.AffVar("i")), RHS: ir.Ref(x, ir.AffVar("i").Add(ir.AffConst(2)))},
		},
	}
	g, err := Build(n)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, nd := range g.Nodes {
		if nd.Kind == KindRef && nd.RefKey == "x[i + 2]" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("x[i+2] read across an aliasing write must split into 2 nodes, got %d\n%s", count, g)
	}
}

// TestLatenciesFingerprint pins the schedule-cache key: equal models share
// a fingerprint, and every model component breaks it.
func TestLatenciesFingerprint(t *testing.T) {
	base := DefaultLatencies()
	if base.Fingerprint() != DefaultLatencies().Fingerprint() {
		t.Error("equal models produced different fingerprints")
	}
	mem := DefaultLatencies()
	mem.Mem = 4
	def := DefaultLatencies()
	def.DefaultOp = 2
	op := DefaultLatencies()
	op.Op[ir.OpDiv] = 16
	for _, l := range []Latencies{mem, def, op} {
		if l.Fingerprint() == base.Fingerprint() {
			t.Errorf("model change not reflected in fingerprint %s", base.Fingerprint())
		}
	}
}

// TestLatenciesFingerprintBytes pins the fingerprint's exact bytes — they
// name schedule-cache entries and disk files — against the fmt rendering
// it replaced, for operator kinds defined and not (a spec may name any
// integer kind), and pins its cost at the one allocation of the result.
func TestLatenciesFingerprintBytes(t *testing.T) {
	oracle := func(l Latencies) string {
		kinds := make([]int, 0, len(l.Op))
		for k := range l.Op {
			kinds = append(kinds, int(k))
		}
		sort.Ints(kinds)
		s := fmt.Sprintf("mem%d,def%d", l.Mem, l.DefaultOp)
		for _, k := range kinds {
			s += fmt.Sprintf(",op%d=%d", k, l.Op[ir.OpKind(k)])
		}
		return s
	}
	wide := DefaultLatencies()
	wide.Mem, wide.DefaultOp = 12, -1
	wide.Op[ir.OpKind(-3)] = 5
	wide.Op[ir.OpKind(99)] = 1 << 40
	for i := 20; i < 40; i++ { // more kinds than the on-stack sort buffer
		wide.Op[ir.OpKind(i)] = i
	}
	for _, l := range []Latencies{DefaultLatencies(), {Mem: 0}, wide} {
		if got, want := l.Fingerprint(), oracle(l); got != want {
			t.Errorf("Fingerprint() = %q, want %q", got, want)
		}
	}
	l := DefaultLatencies()
	if allocs := testing.AllocsPerRun(100, func() { _ = l.Fingerprint() }); allocs != 1 {
		t.Errorf("Latencies.Fingerprint allocates %v times, want 1", allocs)
	}
}
