package dfg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
)

// fingerprintFmt is the fmt rendering Graph.Fingerprint replaced. Its
// bytes key class-schedule cache entries (and, before DESIGN.md §22,
// named their disk files), so the strconv rendering must reproduce them
// exactly.
func fingerprintFmt(g *Graph) string {
	var b strings.Builder
	for i, n := range g.Nodes {
		if n.Kind == KindRef {
			fmt.Fprintf(&b, "%d:r:%s:%s:%t:%t<", i, n.RefKey, n.Ref.Array.Name, n.IsWrite, n.IsRead)
		} else {
			fmt.Fprintf(&b, "%d:o:%d<", i, int(n.Op))
		}
		for _, p := range g.Pred[i] {
			fmt.Fprintf(&b, "%d,", p)
		}
		b.WriteByte(';')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestFingerprintMatchesFmt pins Graph.Fingerprint against its fmt
// rendering on the seven kernels and 2,000 generated nests at the
// random-nests benchmark's generator config, and its cost at three
// allocations: the digest input, the hex buffer and the result.
func TestFingerprintMatchesFmt(t *testing.T) {
	var nests []*ir.Nest
	for _, k := range append(kernels.All(), kernels.Figure1()) {
		nests = append(nests, k.Nest)
	}
	rng := rand.New(rand.NewSource(1))
	cfg := irgen.Config{MaxDepth: 3, MaxTrip: 24, MaxArrays: 5, MaxStmts: 4, InteriorZeroProb: 0.35}
	for range 2000 {
		nests = append(nests, irgen.Nest(rng, cfg))
	}
	for i, n := range nests {
		g, err := Build(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.Fingerprint(), fingerprintFmt(g); got != want {
			t.Fatalf("nest %d (%s): Fingerprint() = %s, fmt rendering %s", i, n.Name, got, want)
		}
	}
	g := buildFigure1(t)
	allocs := testing.AllocsPerRun(100, func() {
		_ = (&Graph{Nodes: g.Nodes, Succ: g.Succ, Pred: g.Pred}).Fingerprint()
	})
	if allocs > 4 { // the fresh Graph itself is the fourth
		t.Errorf("Graph.Fingerprint allocates %v times, want ≤ 3 beyond the graph", allocs)
	}
}
