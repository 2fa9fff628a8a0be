// Package dfg builds and analyzes the data-flow graph abstraction of a loop
// body that the paper's critical-path-aware allocator reasons about: array
// references and operations as nodes, data dependences as edges, path
// latency driven by whether each reference is bound to a register (free) or
// a RAM block (one access latency).
//
// It provides the three graph computations CPA-RA needs (Figure 4):
// critical path extraction, the Critical Graph (union of all critical
// paths), and enumeration of the minimal cuts of the Critical Graph over
// its reference nodes.
package dfg

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ir"
)

// NodeKind distinguishes reference nodes from operation nodes.
type NodeKind int

const (
	// KindRef is an array-reference node (a potential memory access).
	KindRef NodeKind = iota
	// KindOp is an arithmetic/logic operation node.
	KindOp
)

// Node is one vertex of the data-flow graph.
type Node struct {
	//repro:nohash equal to the node's position, which the digest writes explicitly
	ID   int
	Kind NodeKind

	// Reference fields (KindRef).
	Ref    *ir.ArrayRef
	RefKey string // canonical reference identity, e.g. "b[k][j]"
	// RefID is the reference's number: the position of its key in
	// Nest.RefGroups, so nodes of one static reference share it.
	//repro:nohash numbers the keys in first-use order, which the hashed RefKeys in node order determine
	RefID int
	// ArrayID numbers the node's array densely in first-use order over
	// the graph's reference nodes: the index of its RAM's port row.
	//repro:nohash numbers the array names in first-use order, which the hashed names in node order determine
	ArrayID int
	IsWrite bool // the node receives a stored value
	IsRead  bool // the node's value is consumed by an operation

	// Operation fields (KindOp).
	Op ir.OpKind
	// Args are the operation's operands in source order (KindOp), or the
	// stored value's producer (KindRef with IsWrite, single element).
	// Operands that are literals or loop counters do not become graph
	// nodes — they are datapath-internal — but RTL-level execution needs
	// them, so they are recorded here.
	//repro:nohash node-producing operands are Pred (hashed); literal/counter operands are datapath-internal and never scheduled
	Args []Arg

	// Stmt is the body statement that introduced the node.
	//repro:nohash provenance for diagnostics; the scheduler never reads it
	Stmt int
}

// Arg is one operand of an operation node: a producing node, an integer
// literal, or a loop counter.
type Arg struct {
	NodeID int // producing node, valid when Lit == nil and Var == ""
	Lit    *int64
	Var    string
}

// Label renders a short human-readable node description.
func (n *Node) Label() string {
	if n.Kind == KindRef {
		return n.RefKey
	}
	return fmt.Sprintf("op%d(%s)", n.ID, n.Op)
}

// Graph is a DAG over Nodes. Edges point in the direction of data flow.
type Graph struct {
	Nodes []*Node
	//repro:nohash the transpose of Pred, which is hashed in node order
	Succ [][]int
	Pred [][]int

	// Derived by Build once the graph is complete, and read-only after.
	//repro:nohash derived from Pred
	topo []int // topological order (Topo)
	//repro:nohash derived from the nodes' RefIDs
	numRefs int // distinct references: RefIDs are 0..numRefs-1
	//repro:nohash derived from the nodes' ArrayIDs
	numArrays int // distinct arrays: ArrayIDs are 0..numArrays-1
	//repro:nohash derived from the hashed RefKeys
	rank []int // RefID → position of its key in sorted key order

	// Fingerprint cache; computed lazily, safe for concurrent readers.
	fpOnce sync.Once
	fp     string
}

func newGraph() *Graph { return &Graph{} }

func (g *Graph) addNode(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	g.Succ = append(g.Succ, nil)
	g.Pred = append(g.Pred, nil)
	return n
}

func (g *Graph) addEdge(from, to int) {
	for _, s := range g.Succ[from] {
		if s == to {
			return
		}
	}
	g.Succ[from] = append(g.Succ[from], to)
	g.Pred[to] = append(g.Pred[to], from)
}

// Sources returns nodes without predecessors (pure inputs).
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.Nodes {
		if len(g.Pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// NumRefs returns the number of distinct references in the graph: every
// reference node's RefID lies in [0, NumRefs).
func (g *Graph) NumRefs() int { return g.numRefs }

// NumArrays returns the number of distinct arrays the graph's reference
// nodes touch: every reference node's ArrayID lies in [0, NumArrays).
func (g *Graph) NumArrays() int { return g.numArrays }

// RefKeys returns the distinct reference keys present in the graph, sorted.
func (g *Graph) RefKeys() []string {
	set := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Kind == KindRef {
			set[n.RefKey] = true
		}
	}
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build constructs the data-flow graph of the nest's body, one iteration's
// worth of computation. Reference identity follows the paper: a value
// written by one statement and read by a later statement in the same
// iteration is a single node (write-in, read-out), so a RAM-bound reference
// on the path costs one access. A read that precedes the write of the same
// reference (a loop-carried accumulator such as y[i] = y[i] + ...) yields
// two nodes — the iteration genuinely performs a load and a store.
//
// Distinct references to the same array may alias, so Build also inserts
// conservative memory-dependence edges (read-after-write, write-after-read,
// write-after-write) between them in body order; without these, schedulers
// consuming the graph could reorder an access past an aliasing write.
func Build(nest *ir.Nest) (*Graph, error) {
	if err := nest.Validate(); err != nil {
		return nil, fmt.Errorf("dfg: %w", err)
	}
	g := newGraph()
	// refNode creates a reference node and numbers its key and array in
	// first-use order. The body is walked in Nest.RefUses order (each
	// statement's reads left to right, then its write), and a key's first
	// use always creates a node, so a key's number is its position in
	// Nest.RefGroups.
	refIDs := map[string]int{}
	arrayIDs := map[string]int{}
	refNode := func(r *ir.ArrayRef, stmt int) *Node {
		id, ok := refIDs[r.Key()]
		if !ok {
			id = len(refIDs)
			refIDs[r.Key()] = id
		}
		arr, ok := arrayIDs[r.Array.Name]
		if !ok {
			arr = len(arrayIDs)
			arrayIDs[r.Array.Name] = arr
		}
		return &Node{Kind: KindRef, Ref: r, RefKey: r.Key(), RefID: id, ArrayID: arr, Stmt: stmt}
	}
	// written maps a reference key to the node holding the value produced
	// by the most recent write in body order.
	written := map[string]*Node{}
	// inputs maps a reference key to its input (read-before-write) node.
	inputs := map[string]*Node{}
	// Per-array memory-dependence state: the latest write node and the
	// reads issued since it (body order).
	lastWrite := map[string]*Node{}
	readsSince := map[string][]*Node{}

	readNode := func(r *ir.ArrayRef, stmt int) *Node {
		key := r.Key()
		arr := r.Array.Name
		if n, ok := written[key]; ok && lastWrite[arr] == n {
			// Forwarding is sound only while this key's write is still the
			// array's most recent write (no aliasing store intervened).
			n.IsRead = true
			return n
		}
		if n, ok := inputs[key]; ok && afterLastWrite(g, n, lastWrite[arr]) {
			return n
		}
		n := refNode(r, stmt)
		n.IsRead = true
		g.addNode(n)
		if w := lastWrite[arr]; w != nil {
			g.addEdge(w.ID, n.ID) // read-after-write on a possible alias
		}
		inputs[key] = n
		readsSince[arr] = append(readsSince[arr], n)
		return n
	}

	// buildExpr lowers an expression to an Arg: a node reference for array
	// reads and operations, an immediate for literals and loop counters.
	var buildExpr func(e ir.Expr, stmt int) (Arg, error)
	buildExpr = func(e ir.Expr, stmt int) (Arg, error) {
		switch e := e.(type) {
		case *ir.ArrayRef:
			return Arg{NodeID: readNode(e, stmt).ID}, nil
		case *ir.IntLit:
			v := e.Value
			return Arg{Lit: &v}, nil
		case *ir.VarRef:
			return Arg{Var: e.Name}, nil
		case *ir.BinOp:
			l, err := buildExpr(e.L, stmt)
			if err != nil {
				return Arg{}, err
			}
			r, err := buildExpr(e.R, stmt)
			if err != nil {
				return Arg{}, err
			}
			op := g.addNode(&Node{Kind: KindOp, Op: e.Op, Args: []Arg{l, r}, Stmt: stmt})
			for _, a := range []Arg{l, r} {
				if a.Lit == nil && a.Var == "" {
					g.addEdge(a.NodeID, op.ID)
				}
			}
			return Arg{NodeID: op.ID}, nil
		default:
			return Arg{}, fmt.Errorf("dfg: unsupported expression %T", e)
		}
	}

	for si, st := range nest.Body {
		root, err := buildExpr(st.RHS, si)
		if err != nil {
			return nil, err
		}
		key := st.LHS.Key()
		arr := st.LHS.Array.Name
		w := refNode(st.LHS, si)
		w.IsWrite, w.Args = true, []Arg{root}
		g.addNode(w)
		if root.Lit == nil && root.Var == "" {
			g.addEdge(root.NodeID, w.ID)
		}
		// Write-after-write on the array (covers same-key store ordering).
		if prev := lastWrite[arr]; prev != nil {
			g.addEdge(prev.ID, w.ID)
		}
		// Write-after-read: the store may clobber elements earlier reads of
		// aliasing references still need.
		for _, r := range readsSince[arr] {
			if r.ID != w.ID {
				g.addEdge(r.ID, w.ID)
			}
		}
		readsSince[arr] = nil
		lastWrite[arr] = w
		written[key] = w
	}
	g.numRefs, g.numArrays = len(refIDs), len(arrayIDs)
	if err := g.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// finish derives what every consumer of a complete graph reads: the
// topological order, and the rank of each reference's key in sorted key
// order (Cuts enumerates over ranks, so its cuts come out in key order).
func (g *Graph) finish() error {
	order, err := g.topoSort()
	if err != nil {
		return err
	}
	g.topo = order
	keys := make([]string, g.numRefs)
	for _, n := range g.Nodes {
		if n.Kind == KindRef {
			keys[n.RefID] = n.RefKey
		}
	}
	byKey := make([]int, g.numRefs)
	for i := range byKey {
		byKey[i] = i
	}
	sort.Slice(byKey, func(i, j int) bool { return keys[byKey[i]] < keys[byKey[j]] })
	g.rank = make([]int, g.numRefs)
	for r, id := range byKey {
		g.rank[id] = r
	}
	return nil
}

// afterLastWrite reports whether node n was created after the array's
// latest write (node ids grow in creation order), i.e. its cached value
// cannot have been clobbered by an aliasing store.
func afterLastWrite(g *Graph, n, lastWrite *Node) bool {
	return lastWrite == nil || n.ID > lastWrite.ID
}

// String renders the graph in a deterministic adjacency format for
// debugging and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for i, n := range g.Nodes {
		fmt.Fprintf(&b, "%d: %s", i, n.Label())
		if len(g.Succ[i]) > 0 {
			fmt.Fprintf(&b, " ->")
			for _, s := range g.Succ[i] {
				fmt.Fprintf(&b, " %d", s)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Topo returns a topological order of the graph. Build computes it once,
// and the returned slice is then the graph's own and read-only. Build only
// produces DAGs; Topo returns an error if edges added by other means
// created a cycle.
func (g *Graph) Topo() ([]int, error) {
	if g.topo != nil {
		return g.topo, nil
	}
	return g.topoSort()
}

// topoSort computes a topological order by Kahn's algorithm, sources and
// successors in index order.
func (g *Graph) topoSort() ([]int, error) {
	indeg := make([]int, len(g.Nodes))
	for i := range g.Nodes {
		indeg[i] = len(g.Pred[i])
	}
	var order, queue []int
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range g.Succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: graph has a cycle")
	}
	return order, nil
}
