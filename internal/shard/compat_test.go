package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/obs"
)

// v1StockShards reads testdata/v1-stock-{0,1,2}-of-3.jsonl: the three
// shards of the stock space as `dse -shard i/3` wrote them, trailers
// included, while the encoding was version 1 and shards dealt single
// points (g ≡ i mod 3).
func v1StockShards(t *testing.T) []*bytes.Buffer {
	t.Helper()
	bufs := make([]*bytes.Buffer, 3)
	for i := range bufs {
		data, err := os.ReadFile(fmt.Sprintf("testdata/v1-stock-%d-of-3.jsonl", i))
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = bytes.NewBuffer(data)
	}
	return bufs
}

// TestVersion1StockShardsMerge: version 1 files salvage as units of one
// point — complete, every third point — and merge to the unsharded run's
// table, CSV and JSON bytes.
func TestVersion1StockShardsMerge(t *testing.T) {
	bufs := v1StockShards(t)
	for i, b := range bufs {
		s := salvageBytes(t, b.Bytes())
		if !s.Complete || s.Version != 1 || s.Rows() != 64 {
			t.Fatalf("v1 shard %d: complete %v, version %d, %d rows (stop %v)", i, s.Complete, s.Version, s.Rows(), s.Stop)
		}
		for k, ln := range s.rows {
			if *ln.Index != i+3*k {
				t.Fatalf("v1 shard %d: row %d is point %d, want %d", i, k, *ln.Index, i+3*k)
			}
		}
	}
	single, err := dse.Engine{}.Explore(dse.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := mergeBufs(bufs)
	if err != nil {
		t.Fatal(err)
	}
	got, want := render(t, rs), render(t, single)
	for i, name := range []string{"table", "CSV", "JSON"} {
		if got[i] != want[i] {
			t.Errorf("merged version 1 shards: %s output differs from the unsharded run", name)
		}
	}
}

// TestMergeRefusesVersionMix: shards of one fingerprint and count but of
// both versions own different points, so strict Merge refuses the mix as
// a partition mismatch naming both versions, whichever comes first.
func TestMergeRefusesVersionMix(t *testing.T) {
	v1 := v1StockShards(t)
	v2 := runShards(t, dse.DefaultSpace(), 3)
	for _, mix := range [][]*bytes.Buffer{{v1[0], v2[1], v2[2]}, {v2[0], v1[1], v1[2]}, {v2[0], v2[1], v1[2]}} {
		_, err := mergeBufs(mix)
		if err == nil {
			t.Fatal("merge accepted version 1 and version 2 shards together")
		}
		for _, want := range []string{"partition mismatch", "version 1", "version 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("merge error %q does not contain %q", err, want)
			}
		}
	}
}

// unitSpace is smallSpace on two devices: 16 points in 2-point units.
func unitSpace() dse.Space {
	sp := smallSpace()
	sp.Devices = append(sp.Devices, fpga.XC2V6000())
	return sp
}

// headerLine renders a shard file header with the given claims.
func headerLine(t testing.TB, version int, spec dse.SpaceSpec, p Plan, points, rows int) string {
	t.Helper()
	data, err := json.Marshal(header{Format: formatName, Version: version, Fingerprint: spec.Fingerprint(),
		Shard: p, Points: points, Rows: rows, Space: spec})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// TestSalvageRefusesUnitlessHeader: a version 2 header whose spec has an
// empty device or sched axis names no unit size, so no ownership rule,
// and Salvage refuses it; version 1 never read the spec's axes.
func TestSalvageRefusesUnitlessHeader(t *testing.T) {
	full := dse.Spec(unitSpace())
	for _, spec := range []dse.SpaceSpec{
		{Kernels: full.Kernels, Allocators: full.Allocators, Budgets: full.Budgets, Scheds: full.Scheds},
		{Kernels: full.Kernels, Allocators: full.Allocators, Budgets: full.Budgets, Devices: full.Devices},
		{},
	} {
		data := headerLine(t, formatVersion, spec, Plan{Index: 0, Count: 2}, 16, 8)
		if _, err := Salvage(strings.NewReader(data)); err == nil || !strings.Contains(err.Error(), "no unit size") {
			t.Errorf("version 2 header with %d devices × %d scheds: salvage error %v", len(spec.Devices), len(spec.Scheds), err)
		}
		if _, err := Salvage(strings.NewReader(headerLine(t, 1, spec, Plan{Index: 0, Count: 2}, 16, 8))); err != nil {
			t.Errorf("version 1 header with %d devices × %d scheds refused: %v", len(spec.Devices), len(spec.Scheds), err)
		}
	}
}

// TestSalvageAdversarialUnitHeaders: version 2 headers whose claims are
// hostile — points near MaxInt, more shards than units, a unit wider than
// the space, 2^40 points — salvage a real file's rows only as far as
// they are owned, never overflow, and allocate nothing in proportion to
// the claims.
func TestSalvageAdversarialUnitHeaders(t *testing.T) {
	sp := unitSpace()
	spec := dse.Spec(sp)
	real := runShards(t, sp, 3)[1].Bytes() // units 1, 4, 7: points 2, 3, 8, 9, 14, 15
	rows := real[bytes.IndexByte(real, '\n')+1:]
	wide := spec
	wide.Devices = append(wide.Devices, wide.Devices...) // 4-point units
	for _, c := range []struct {
		name   string
		spec   dse.SpaceSpec
		plan   Plan
		points int
		keep   int // rows kept from the real shard 1/3
	}{
		{"points near MaxInt", spec, Plan{1, 3}, math.MaxInt, 6},
		{"points at MaxInt-1", spec, Plan{1, 3}, math.MaxInt - 1, 6},
		{"count above the units", spec, Plan{1, math.MaxInt}, 16, 2},
		{"count above the units, huge space", spec, Plan{1, math.MaxInt}, math.MaxInt, 2},
		{"unit wider than the points", wide, Plan{1, 3}, 3, 0},
		{"2^40 points", spec, Plan{1, 3}, 1 << 40, 6},
		{"the real header", spec, Plan{1, 3}, 16, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			claim := headerLine(t, formatVersion, c.spec, c.plan, c.points, c.plan.Size(c.points, c.spec.UnitSize()))
			data := append([]byte(claim), rows...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Salvage(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if s.Rows() != c.keep {
				t.Fatalf("kept %d rows, want %d (stop %v)", s.Rows(), c.keep, s.Stop)
			}
			checkOwnedPrefix(t, s)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("salvage allocated %d bytes", grew)
			}
			if s.Complete != (c.name == "the real header") {
				t.Fatalf("complete = %v (stop %v)", s.Complete, s.Stop)
			}
		})
	}
}

// scheduleCounts sums a snapshot's schedule stages: every alloc/*
// stage, plan and sim count once per (kernel, allocator, budget, sched)
// schedule the engine ran.
func scheduleCounts(snap obs.Snapshot) map[string]int64 {
	counts := map[string]int64{}
	for name, st := range snap.Stages {
		if strings.HasPrefix(name, "alloc/") || name == "plan" || name == "sim" {
			counts[name] = st.Count
		}
	}
	return counts
}

// TestShardsScheduleEachUnitOnce is the count invariant of unit shards:
// however many shards split a space, their trailers' alloc/*, plan and
// sim counts sum to the unsharded run's, because each unit is scheduled
// by one shard. Dealing points instead schedules every unit of a
// two-device space twice.
func TestShardsScheduleEachUnitOnce(t *testing.T) {
	portfolio := dse.DefaultSpace()
	portfolio.Portfolio = true
	twoSched := dse.DefaultSpace()
	twoSched.Scheds = dse.SchedAxis([]int{1, 2}, []int{1})
	for name, sp := range map[string]dse.Space{"stock": dse.DefaultSpace(), "portfolio": portfolio, "two-sched": twoSched} {
		rs, err := dse.Engine{Obs: obs.New()}.Explore(sp)
		if err != nil {
			t.Fatal(err)
		}
		want := scheduleCounts(rs.Obs)
		if len(want) < 3 {
			t.Fatalf("%s: unsharded run counted only %v", name, want)
		}
		for _, n := range []int{1, 2, 3, 5, 8} {
			got := map[string]int64{}
			for i := 0; i < n; i++ {
				var buf bytes.Buffer
				if _, err := Run(dse.Engine{Obs: obs.New()}, sp, Plan{Index: i, Count: n}, &buf); err != nil {
					t.Fatal(err)
				}
				for stage, c := range scheduleCounts(salvageBytes(t, buf.Bytes()).Obs) {
					got[stage] += c
				}
			}
			for stage, c := range want {
				if got[stage] != c {
					t.Errorf("%s, %d shards: %s counted %d times in all, the unsharded run %d", name, n, stage, got[stage], c)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s, %d shards: stages %v, unsharded %v", name, n, got, want)
			}
		}
	}
}
