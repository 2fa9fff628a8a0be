package dse

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// TestSpecSpacesShareKernels: spaces resolved from a spec on concurrent
// goroutines hold one nest per kernel name, kernels.Shared's, and
// concurrent instrumented explorations over them, on one store and
// analysis memo as a server runs them, render what a space of fresh
// kernels renders (and, under -race, read the shared nests race-free).
func TestSpecSpacesShareKernels(t *testing.T) {
	fresh := mustNormalize(t, Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}, core.CPARA{}},
		Budgets:    []int{16, 64},
	})
	csv := func(rs *ResultSet) string {
		var b bytes.Buffer
		if err := (CSVReporter{}).Report(&b, rs); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	want := csv(mustExplore(t, Engine{Workers: 1}, fresh))
	spec := Spec(fresh)
	store, ac := simcache.New(), NewAnalysisCache()
	const n = 4
	spaces := make([]Space, n)
	outs := make([]string, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() { //repro:norecover test goroutine: a panic fails the test binary
			defer wg.Done()
			sp, err := spec.Space()
			if err != nil {
				t.Error(err)
				return
			}
			spaces[i] = sp
			rs, err := Engine{Workers: 2, SimCache: store, Analyses: ac, Obs: obs.New()}.Explore(sp)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = csv(rs)
		}()
	}
	wg.Wait()
	for i := range n {
		if outs[i] != want {
			t.Errorf("exploration %d of a resolved spec renders differently from the fresh space", i)
		}
		for _, k := range spaces[i].Kernels {
			if shared, _ := kernels.Shared(k.Name); k.Nest != shared.Nest {
				t.Errorf("space %d: %s's nest is not the shared one", i, k.Name)
			}
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sp := DefaultSpace()
	spec := Spec(sp)
	back, err := spec.Space()
	if err != nil {
		t.Fatalf("Space(): %v", err)
	}
	want, got := sp.Points(), back.Points()
	if len(want) != len(got) {
		t.Fatalf("round trip changed point count: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].ID() != got[i].ID() {
			t.Fatalf("point %d: %s != %s", i, want[i].ID(), got[i].ID())
		}
	}
	if f1, f2 := spec.Fingerprint(), Spec(back).Fingerprint(); f1 != f2 {
		t.Errorf("fingerprint changed across round trip: %s vs %s", f1, f2)
	}
}

func TestSpecRoundTripSchedConfig(t *testing.T) {
	// A non-default scheduler variant must reconstruct exactly — the
	// latency model drives the simulation, so any drift would silently
	// change merged results.
	axis := SchedAxis([]int{1, 4}, []int{2})
	sp := Space{
		Kernels:    DefaultSpace().Kernels[:1],
		Allocators: DefaultSpace().Allocators[:1],
		Budgets:    []int{32},
		Devices:    DefaultSpace().Devices[:1],
		Scheds:     axis,
	}
	back, err := Spec(sp).Space()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range back.Scheds {
		orig := axis[i]
		if v.Name != orig.Name || v.Config.PortsPerRAM != orig.Config.PortsPerRAM {
			t.Errorf("variant %d: %+v != %+v", i, v, orig)
		}
		if v.Config.Lat.Fingerprint() != orig.Config.Lat.Fingerprint() {
			t.Errorf("variant %d latency model drifted: %s vs %s",
				i, v.Config.Lat.Fingerprint(), orig.Config.Lat.Fingerprint())
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Spec(DefaultSpace())
	seen := map[string]string{base.Fingerprint(): "base"}
	check := func(name string, mutate func(*SpaceSpec)) {
		s := Spec(DefaultSpace())
		mutate(&s)
		fp := s.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
	check("different budget", func(s *SpaceSpec) { s.Budgets[0] = 17 })
	check("dropped kernel", func(s *SpaceSpec) { s.Kernels = s.Kernels[1:] })
	check("reordered kernels", func(s *SpaceSpec) {
		s.Kernels[0], s.Kernels[1] = s.Kernels[1], s.Kernels[0]
	})
	check("different RAM latency", func(s *SpaceSpec) { s.Scheds[0].Mem = 2 })
	check("different ports", func(s *SpaceSpec) { s.Scheds[0].Ports = 2 })
	check("different device", func(s *SpaceSpec) { s.Devices = s.Devices[:1] })
}

func TestSpecRejectsUnknownNamesAndEmptyAxes(t *testing.T) {
	good := Spec(DefaultSpace())
	for _, tc := range []struct {
		name   string
		mutate func(*SpaceSpec)
	}{
		{"unknown kernel", func(s *SpaceSpec) { s.Kernels[0] = "nope" }},
		{"unknown allocator", func(s *SpaceSpec) { s.Allocators[0] = "ZZ-RA" }},
		{"unknown device", func(s *SpaceSpec) { s.Devices[0] = "XC9999" }},
		{"empty kernels", func(s *SpaceSpec) { s.Kernels = nil }},
		{"empty allocators", func(s *SpaceSpec) { s.Allocators = nil }},
		{"empty budgets", func(s *SpaceSpec) { s.Budgets = nil }},
		{"empty devices", func(s *SpaceSpec) { s.Devices = nil }},
		{"empty scheds", func(s *SpaceSpec) { s.Scheds = nil }},
	} {
		s := good
		// Deep-enough copy of the mutated axes.
		s.Kernels = append([]string(nil), good.Kernels...)
		s.Allocators = append([]string(nil), good.Allocators...)
		s.Devices = append([]string(nil), good.Devices...)
		s.Scheds = append([]SchedSpec(nil), good.Scheds...)
		tc.mutate(&s)
		if _, err := s.Space(); err == nil {
			t.Errorf("%s: Space() accepted", tc.name)
		}
	}
}

// TestSpaceSizeCap: a space of more than maxPoints design points is
// refused where it is resolved (SpaceSpec.Space) and where it is
// explored (normalization), before anything is sized from it, and the
// check survives axis lengths whose product overflows.
func TestSpaceSizeCap(t *testing.T) {
	at := Spec(DefaultSpace())
	at.Kernels, at.Allocators, at.Devices = at.Kernels[:1], at.Allocators[:1], at.Devices[:1]
	at.Budgets = make([]int, maxPoints)
	if sp, err := at.Space(); err != nil || sp.Size() != maxPoints {
		t.Fatalf("a spec of exactly maxPoints points: size %d, err %v", sp.Size(), err)
	}
	over := at
	over.Budgets = make([]int, maxPoints+1)
	if _, err := over.Space(); err == nil {
		t.Fatal("a spec of maxPoints+1 points resolved")
	}
	// Portfolio mode counts one allocator coordinate however many compete.
	pf := at
	pf.Allocators, pf.Portfolio = Spec(DefaultSpace()).Allocators, true
	if _, err := pf.Space(); err != nil {
		t.Fatalf("a portfolio spec of maxPoints points: %v", err)
	}
	// 2^64 points: a plain int product wraps to 0.
	if err := checkSize(1<<16, 1<<16, 1<<16, 1<<16, 1); err == nil {
		t.Fatal("an overflowing product passed the size check")
	}
	sp := DefaultSpace()
	sp.Budgets = make([]int, maxPoints/len(sp.Kernels))
	if _, err := (Engine{Workers: 1}).Explore(sp); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("exploring a space over the cap: err %v", err)
	}
}

func TestSpecPortfolioRoundTrip(t *testing.T) {
	// The portfolio flag changes the point set (one pseudo-allocator point
	// replaces the per-allocator points), so it must survive the round trip
	// and separate the fingerprints.
	sp := DefaultSpace()
	sp.Portfolio = true
	sp, err := sp.normalized()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec(sp)
	if !spec.Portfolio {
		t.Fatal("Spec dropped the portfolio flag")
	}
	back, err := spec.Space()
	if err != nil {
		t.Fatalf("Space(): %v", err)
	}
	if !back.Portfolio {
		t.Fatal("round trip dropped the portfolio flag")
	}
	plain := Spec(DefaultSpace())
	if spec.Fingerprint() == plain.Fingerprint() {
		t.Error("portfolio and plain specs share a fingerprint")
	}
}

func TestBuildSpace(t *testing.T) {
	sp, err := BuildSpace("fir,mat", "CPA-RA", "16,32", "XCV1000", "1,2", "1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Kernels) != 2 || len(sp.Allocators) != 1 || len(sp.Budgets) != 2 ||
		len(sp.Devices) != 1 || len(sp.Scheds) != 2 {
		t.Fatalf("axes = %d/%d/%d/%d/%d, want 2/1/2/1/2", len(sp.Kernels),
			len(sp.Allocators), len(sp.Budgets), len(sp.Devices), len(sp.Scheds))
	}
	if sp.Scheds[0].Name != "m1p1" || sp.Scheds[1].Name != "m2p1" {
		t.Errorf("sched names = %s, %s; want m1p1, m2p1", sp.Scheds[0].Name, sp.Scheds[1].Name)
	}
	if sp.Scheds[1].Config.Lat.Mem != 2 {
		t.Errorf("second variant Mem = %d, want 2", sp.Scheds[1].Config.Lat.Mem)
	}

	// Defaults: everything empty but budgets resolves to the full suite
	// under the default scheduler.
	sp, err = BuildSpace("", "", "0", "", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Kernels) != 6 || len(sp.Allocators) != 4 || len(sp.Devices) != 0 {
		t.Errorf("default axes = %d kernels, %d allocators, %d devices; want 6, 4, 0 (devices default at normalization)",
			len(sp.Kernels), len(sp.Allocators), len(sp.Devices))
	}
	if len(sp.Scheds) != 1 || sp.Scheds[0].Name != "default" {
		t.Errorf("singleton default sched axis = %+v", sp.Scheds)
	}

	for _, bad := range [][6]string{
		{"nope", "", "16", "", "1", "1"},
		{"", "ZZ-RA", "16", "", "1", "1"},
		{"", "", "-1", "", "1", "1"},
		{"", "", "16", "XC9999", "1", "1"},
		{"", "", "16", "", "0", "1"},
		{"", "", "16", "", "1", "x"},
	} {
		if _, err := BuildSpace(bad[0], bad[1], bad[2], bad[3], bad[4], bad[5]); err == nil {
			t.Errorf("BuildSpace(%v) accepted", bad)
		}
	}
}

func TestSplitListAndParseInts(t *testing.T) {
	if got := SplitList(" a, b ,,c "); strings.Join(got, "|") != "a|b|c" {
		t.Errorf("SplitList = %v", got)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %v, want nil", got)
	}
	vals, err := ParseInts("8, 16,32", 1)
	if err != nil || len(vals) != 3 || vals[2] != 32 {
		t.Errorf("ParseInts = %v, %v", vals, err)
	}
	for _, bad := range []string{"", "0", "x", "4,-4"} {
		if _, err := ParseInts(bad, 1); err == nil {
			t.Errorf("ParseInts(%q, 1) accepted", bad)
		}
	}
}
