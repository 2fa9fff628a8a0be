package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/irgen"
	"repro/internal/scalarrepl"
)

// FuzzSimulateGraph generates a nest from an irgen seed and the
// generator's config knobs — depth, trip (capped at 8 so the seed
// oracle's full-space walks stay cheap), arrays, statements and the
// interior-zero probability in percent — and checks every allocator's
// plan at budgets 16 and 64, plus one random β vector, under a scheduler
// configuration drawn from the seed: SimulateGraph must equal the seed
// reference field for field, and Transfers its transfer replay.
func FuzzSimulateGraph(f *testing.F) {
	// The random-nests benchmark's knobs (trip capped), with and without
	// interior zeros, then small and deep shapes.
	f.Add(int64(1), uint8(3), uint8(24), uint8(5), uint8(4), uint8(35))
	f.Add(int64(9), uint8(3), uint8(8), uint8(5), uint8(4), uint8(0))
	f.Add(int64(10), uint8(3), uint8(8), uint8(5), uint8(4), uint8(0))
	f.Add(int64(7), uint8(4), uint8(5), uint8(3), uint8(2), uint8(50))
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(1), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, depth, trip, arrays, stmts, zeroPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := irgen.Nest(rng, irgen.Config{
			MaxDepth:         clamp(depth, 1, 4),
			MaxTrip:          clamp(trip, 2, 8),
			MaxArrays:        clamp(arrays, 2, 5),
			MaxStmts:         clamp(stmts, 1, 4),
			InteriorZeroProb: float64(clamp(zeroPct, 0, 100)) / 100,
		})
		cfg := DefaultConfig()
		cfg.Lat.Mem = 1 + rng.Intn(3)
		cfg.PortsPerRAM = 1 + rng.Intn(2)
		// One front-end backs every plan, as in a sweep.
		full, err := core.NewProblem(n, 1<<20, cfg.Lat)
		if err != nil {
			t.Fatalf("%v\n%s", err, dsl.Format(n))
		}
		infos, g := full.Infos, full.Graph

		check := func(what string, beta []int) {
			plan, err := scalarrepl.NewPlan(n, infos, beta)
			if err != nil {
				t.Fatalf("%s: %v\n%s", what, err, dsl.Format(n))
			}
			want, err := simulateReference(n, plan, cfg)
			if err != nil {
				t.Fatalf("%s: seed reference: %v\n%s", what, err, dsl.Format(n))
			}
			got, err := SimulateGraph(n, g, plan, cfg)
			if err != nil {
				t.Fatalf("%s: %v\n%s", what, err, dsl.Format(n))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (β=%v): SimulateGraph diverges from the seed reference\n got %+v\nwant %+v\n%s",
					what, beta, got, want, dsl.Format(n))
			}
			loads, stores, err := Transfers(n, plan)
			if err != nil {
				t.Fatalf("%s: %v\n%s", what, err, dsl.Format(n))
			}
			if wl, ws := transferCountsReference(n, plan); loads != wl || stores != ws {
				t.Fatalf("%s (β=%v): Transfers = %d/%d, seed %d/%d\n%s", what, beta, loads, stores, wl, ws, dsl.Format(n))
			}
		}
		for _, rmax := range []int{16, 64} {
			prob, err := core.NewProblemFrom(n, infos, g, rmax, cfg.Lat)
			if err != nil {
				continue // budget below the reference count
			}
			for _, alg := range core.All() {
				alloc, err := alg.Allocate(prob)
				if err != nil {
					t.Fatalf("%s at %d: %v\n%s", alg.Name(), rmax, err, dsl.Format(n))
				}
				check(alg.Name(), alloc.Beta)
			}
		}
		beta := make([]int, len(infos))
		for i, inf := range infos {
			beta[i] = 1 + rng.Intn(inf.Nu+2)
		}
		check("random β", beta)
	})
}

func clamp(v uint8, lo, hi int) int { return min(max(int(v), lo), hi) }
