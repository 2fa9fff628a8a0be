package reuse

import (
	"math/rand"
	"testing"

	"repro/internal/dsl"
	"repro/internal/irgen"
)

// FuzzClosedForm generates a nest from an irgen seed and the generator's
// config knobs — depth, trip (capped at 8 so the enumerating oracle stays
// cheap), arrays, statements and the interior-zero probability in
// percent — and checks, for every reference group and level, that
// distinctAtLevel equals the enumerator and that the closed form equals it
// whenever it answers (three or more irreducible progressions fall back).
// The nest must also survive the DSL: formatting, parsing and formatting
// again reproduces the text.
func FuzzClosedForm(f *testing.F) {
	// The random-nests benchmark's knobs (trip capped), with and without
	// interior zeros; seeds 9 and 10 reach the fallback.
	f.Add(int64(1), uint8(3), uint8(24), uint8(5), uint8(4), uint8(35))
	f.Add(int64(9), uint8(3), uint8(8), uint8(5), uint8(4), uint8(0))
	f.Add(int64(10), uint8(3), uint8(8), uint8(5), uint8(4), uint8(0))
	f.Add(int64(7), uint8(4), uint8(5), uint8(3), uint8(2), uint8(50))
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(1), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, depth, trip, arrays, stmts, zeroPct uint8) {
		cfg := irgen.Config{
			MaxDepth:         clamp(depth, 1, 4),
			MaxTrip:          clamp(trip, 2, 8),
			MaxArrays:        clamp(arrays, 2, 5),
			MaxStmts:         clamp(stmts, 1, 4),
			InteriorZeroProb: float64(clamp(zeroPct, 0, 100)) / 100,
		}
		n := irgen.Nest(rand.New(rand.NewSource(seed)), cfg)
		for _, g := range n.RefGroups() {
			for l := 0; l <= n.Depth(); l++ {
				want := distinctEnumerated(n, g.Ref, l)
				if got, ok := distinctClosedForm(n, g.Ref, l); ok && got != want {
					t.Fatalf("%s level %d: closed form %d, enumerator %d\n%s", g.Key, l, got, want, dsl.Format(n))
				}
				if got := distinctAtLevel(n, g.Ref, l); got != want {
					t.Fatalf("%s level %d: distinctAtLevel %d, enumerator %d\n%s", g.Key, l, got, want, dsl.Format(n))
				}
			}
		}
		text := dsl.Format(n)
		back, err := dsl.Parse(text)
		if err != nil {
			t.Fatalf("formatted nest rejected: %v\n%s", err, text)
		}
		if again := dsl.Format(back); again != text {
			t.Fatalf("format → parse → format changed the text:\n%s\nvs\n%s", text, again)
		}
	})
}

func clamp(v uint8, lo, hi int) int { return min(max(int(v), lo), hi) }
