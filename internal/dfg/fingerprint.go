package dfg

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Fingerprint returns a digest identifying everything a scheduler reads
// from the graph: per node its kind, reference key and array (port
// contention groups by array), operator kind, and predecessor list, in node
// order. Two graphs with equal fingerprints schedule identically under any
// latency model and residency pattern, so cross-plan schedule caches can
// key on it. The digest is computed once and cached; the graph must not be
// mutated afterwards (Build's product is read-only by convention).
func (g *Graph) Fingerprint() string {
	g.fpOnce.Do(func() {
		n := 0
		for i, nd := range g.Nodes {
			n += 32 + len(nd.RefKey) + 4*len(g.Pred[i]) // fixed text and digits, key, preds
			if nd.Kind == KindRef {
				n += len(nd.Ref.Array.Name)
			}
		}
		b := make([]byte, 0, n)
		for i, nd := range g.Nodes {
			b = strconv.AppendInt(b, int64(i), 10)
			if nd.Kind == KindRef {
				b = append(b, ":r:"...)
				b = append(b, nd.RefKey...)
				b = append(b, ':')
				b = append(b, nd.Ref.Array.Name...)
				b = append(b, ':')
				b = strconv.AppendBool(b, nd.IsWrite)
				b = append(b, ':')
				b = strconv.AppendBool(b, nd.IsRead)
			} else {
				b = append(b, ":o:"...)
				b = strconv.AppendInt(b, int64(nd.Op), 10)
			}
			b = append(b, '<')
			for _, p := range g.Pred[i] {
				b = strconv.AppendInt(b, int64(p), 10)
				b = append(b, ',')
			}
			b = append(b, ';')
		}
		sum := sha256.Sum256(b)
		g.fp = hex.EncodeToString(sum[:])
	})
	return g.fp
}
