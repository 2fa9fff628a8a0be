package dse

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPortfolioCollapsesAllocatorAxis checks point enumeration: one point
// per (kernel, budget, device, sched), carrying the portfolio
// pseudo-allocator.
func TestPortfolioCollapsesAllocatorAxis(t *testing.T) {
	sp := smallSpace()
	sp.Portfolio = true
	pts := sp.Points()
	if len(pts) != 8 || sp.Size() != 8 {
		t.Fatalf("portfolio space has %d points (Size %d), want 8", len(pts), sp.Size())
	}
	for _, p := range pts {
		pf, ok := p.Allocator.(Portfolio)
		if !ok {
			t.Fatalf("point %s carries %T, want Portfolio", p.ID(), p.Allocator)
		}
		if len(pf.Allocators) != 2 {
			t.Fatalf("portfolio carries %d members, want 2", len(pf.Allocators))
		}
	}
	if pts[0].ID() != "figure1/portfolio/r32/XCV1000-BG560/default" {
		t.Errorf("first point = %s", pts[0].ID())
	}
}

// TestPortfolioPicksBestByObjective: every portfolio point must equal the
// objective-best of the per-allocator designs the explicit axis produces —
// same metrics, winner name among the members.
func TestPortfolioPicksBestByObjective(t *testing.T) {
	sp := smallSpace()
	axis := mustExplore(t, Engine{}, sp)

	pf := sp
	pf.Portfolio = true
	port := mustExplore(t, Engine{}, pf)

	// Index axis results by (kernel, budget, device, sched).
	type coord struct {
		k, d, s string
		b       int
	}
	byCoord := map[coord][]Result{}
	for _, r := range axis.Results {
		c := coord{k: r.Point.Kernel.Name, d: r.Point.Device.Name, s: r.Point.Sched.Name, b: r.Point.Budget}
		byCoord[c] = append(byCoord[c], r)
	}
	memberNames := map[string]bool{}
	for _, a := range sp.Allocators {
		memberNames[a.Name()] = true
	}
	for _, r := range port.Results {
		if !r.Ok() {
			t.Fatalf("portfolio point %s failed: %v", r.Point.ID(), r.Err)
		}
		c := coord{k: r.Point.Kernel.Name, d: r.Point.Device.Name, s: r.Point.Sched.Name, b: r.Point.Budget}
		cands := byCoord[c]
		if len(cands) != len(sp.Allocators) {
			t.Fatalf("%s: %d axis candidates, want %d", r.Point.ID(), len(cands), len(sp.Allocators))
		}
		var best Result
		for _, cand := range cands {
			if !cand.Ok() {
				continue
			}
			if best.Design == nil {
				best = cand
				continue
			}
			d, bd := cand.Design, best.Design
			if d.TimeUs < bd.TimeUs ||
				(d.TimeUs == bd.TimeUs && d.Slices < bd.Slices) ||
				(d.TimeUs == bd.TimeUs && d.Slices == bd.Slices && d.Registers < bd.Registers) {
				best = cand
			}
		}
		if best.Design == nil {
			t.Fatalf("%s: no successful axis candidate", r.Point.ID())
		}
		got, want := r.Design, best.Design
		if got.TimeUs != want.TimeUs || got.Cycles != want.Cycles || got.Slices != want.Slices ||
			got.Registers != want.Registers || got.Algorithm != want.Algorithm {
			t.Errorf("%s: portfolio picked %s (t=%.2f c=%d s=%d r=%d), objective best is %s (t=%.2f c=%d s=%d r=%d)",
				r.Point.ID(), got.Algorithm, got.TimeUs, got.Cycles, got.Slices, got.Registers,
				want.Algorithm, want.TimeUs, want.Cycles, want.Slices, want.Registers)
		}
		if !memberNames[got.Algorithm] {
			t.Errorf("%s: winner %q is not a portfolio member", r.Point.ID(), got.Algorithm)
		}
	}
}

// TestPortfolioDeterministicAndCacheAgnostic: portfolio output must not
// depend on worker count. That it matches estimating each point without
// the caches is TestUnitDispatchMatchesStandaloneEstimates.
func TestPortfolioDeterministicAndCacheAgnostic(t *testing.T) {
	sp := smallSpace()
	sp.Portfolio = true
	render := func(e Engine) string {
		rs := mustExplore(t, e, sp)
		var buf bytes.Buffer
		if err := (CSVReporter{Pareto: true}).Report(&buf, rs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := render(Engine{Workers: 1})
	if got := render(Engine{Workers: 7}); got != base {
		t.Error("portfolio output varies with worker count")
	}
}

// TestPortfolioSharesSimCache: the portfolio's member allocators must share
// one plan-level cache — agreeing members cost one simulation, so the
// unique-sim count of the portfolio run equals the explicit axis run's.
func TestPortfolioSharesSimCache(t *testing.T) {
	sp := smallSpace()
	axis := mustExplore(t, Engine{}, sp)
	pf := sp
	pf.Portfolio = true
	port := mustExplore(t, Engine{}, pf)
	if port.UniqueSims != axis.UniqueSims {
		t.Errorf("portfolio ran %d unique sims, explicit axis %d — cache not shared across members",
			port.UniqueSims, axis.UniqueSims)
	}
	if port.Cache.PlanMisses != int64(port.UniqueSims) {
		t.Errorf("plan misses %d != unique sims %d", port.Cache.PlanMisses, port.UniqueSims)
	}
}

// TestPortfolioSpecRoundTrip: the portfolio flag must survive the
// spec/fingerprint round trip and distinguish the space.
func TestPortfolioSpecRoundTrip(t *testing.T) {
	sp, err := smallSpace().normalized()
	if err != nil {
		t.Fatal(err)
	}
	plain := Spec(sp)
	sp.Portfolio = true
	spec := Spec(sp)
	if !spec.Portfolio {
		t.Fatal("Spec dropped the portfolio flag")
	}
	if spec.Fingerprint() == plain.Fingerprint() {
		t.Fatal("portfolio space shares a fingerprint with the plain space")
	}
	back, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Portfolio {
		t.Fatal("Space() dropped the portfolio flag")
	}
	if got := len(back.Points()); got != len(sp.Points()) {
		t.Fatalf("round-tripped space has %d points, want %d", got, len(sp.Points()))
	}
}

// TestSimCacheDirSharedAcrossRuns: two engines over one SimCacheDir
// render the in-memory run's bytes, and share nothing through it: class
// schedules live in memory (DESIGN.md §22) and analyses are never stored,
// so the second run computes what the first did and the directory stays
// empty.
func TestSimCacheDirSharedAcrossRuns(t *testing.T) {
	sp := smallSpace()
	dir := t.TempDir()
	render := func(e Engine) (string, StreamStats) {
		var buf bytes.Buffer
		st, err := e.ExploreStream(sp, CSVReporter{Pareto: true}.Stream(&buf))
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), st
	}
	first, st1 := render(Engine{SimCacheDir: dir})
	if st1.Cache.ClassMisses == 0 {
		t.Fatalf("cold run scheduled no classes: %+v", st1.Cache)
	}
	second, st2 := render(Engine{SimCacheDir: dir})
	if second != first {
		t.Error("a second run over the directory changed the output bytes")
	}
	if st2.Cache != st1.Cache || st2.Cache.ClassDiskHits != 0 || st2.Cache.AnalysisDiskHits != 0 {
		t.Errorf("the second run should count what the first did, with no disk hit: first %+v, second %+v", st1.Cache, st2.Cache)
	}
	memory, _ := render(Engine{})
	if memory != first {
		t.Error("output over SimCacheDir differs from in-memory output")
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Errorf("directory holds %s, want nothing", f.Name())
	}
}

// TestPortfolioAllocateErrors: the pseudo-allocator must refuse direct use.
func TestPortfolioAllocateErrors(t *testing.T) {
	if _, err := (Portfolio{Allocators: core.All()}).Allocate(nil); err == nil {
		t.Fatal("Portfolio.Allocate should error")
	}
	if (Portfolio{}).Name() != "portfolio" {
		t.Fatal("unexpected portfolio name")
	}
}

// TestPortfolioAllCarriesMembers: in portfolio-all mode every successful
// point carries each member allocator's design in allocator list order,
// the winner among them, and the winner equals plain portfolio mode's.
func TestPortfolioAllCarriesMembers(t *testing.T) {
	sp := smallSpace()
	sp.PortfolioAll = true
	rs := mustExplore(t, Engine{}, sp)
	plain := smallSpace()
	plain.Portfolio = true
	prs := mustExplore(t, Engine{}, plain)
	for i, r := range rs.Results {
		if !r.Ok() {
			t.Fatalf("%s failed: %v", r.Point.ID(), r.Err)
		}
		if len(r.Members) != len(sp.Allocators) {
			t.Fatalf("%s: %d members, want %d", r.Point.ID(), len(r.Members), len(sp.Allocators))
		}
		winnerListed := false
		for j, m := range r.Members {
			if want := sp.Allocators[j].Name(); m.Algorithm != want {
				t.Errorf("%s member %d is %s, want %s (allocator order)", r.Point.ID(), j, m.Algorithm, want)
			}
			if m.Algorithm == r.Design.Algorithm && m.TimeUs == r.Design.TimeUs {
				winnerListed = true
			}
			if m.TimeUs < r.Design.TimeUs {
				t.Errorf("%s: member %s (%.2fus) beats the winner %s (%.2fus)",
					r.Point.ID(), m.Algorithm, m.TimeUs, r.Design.Algorithm, r.Design.TimeUs)
			}
		}
		if !winnerListed {
			t.Errorf("%s: winner %s missing from members", r.Point.ID(), r.Design.Algorithm)
		}
		pw := prs.Results[i].Design
		if r.Design.Algorithm != pw.Algorithm || r.Design.TimeUs != pw.TimeUs {
			t.Errorf("%s: portfolio-all winner %s/%.2f differs from portfolio winner %s/%.2f",
				r.Point.ID(), r.Design.Algorithm, r.Design.TimeUs, pw.Algorithm, pw.TimeUs)
		}
	}
}

// TestPortfolioAllReporters: CSV grows a role column with one member row
// per allocator; JSON points carry a portfolio array; winner rows keep the
// pareto mark and member rows never carry one.
func TestPortfolioAllReporters(t *testing.T) {
	sp := smallSpace()
	sp.PortfolioAll = true
	rs := mustExplore(t, Engine{}, sp)

	var csvBuf bytes.Buffer
	if err := (CSVReporter{Pareto: true}).Report(&csvBuf, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if want := "kernel,algorithm,role,rmax,device,sched,registers,cycles,tmem,clock_ns,time_us,slices,slice_util_pct,brams,error,pareto"; lines[0] != want {
		t.Fatalf("csv header = %q, want %q", lines[0], want)
	}
	wantRows := len(rs.Results) * (1 + len(sp.Allocators))
	if got := len(lines) - 1; got != wantRows {
		t.Fatalf("csv has %d rows, want %d (winner + members per point)", got, wantRows)
	}
	winners, members := 0, 0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		switch f[2] {
		case "winner":
			winners++
			if f[len(f)-1] != "0" && f[len(f)-1] != "1" {
				t.Fatalf("winner row lacks a pareto mark: %q", line)
			}
		case "member":
			members++
			if f[len(f)-1] != "" {
				t.Fatalf("member row carries a pareto mark: %q", line)
			}
		default:
			t.Fatalf("row with unknown role %q: %q", f[2], line)
		}
	}
	if winners != len(rs.Results) || members != len(rs.Results)*len(sp.Allocators) {
		t.Fatalf("csv roles: %d winners, %d members", winners, members)
	}

	var jsonBuf bytes.Buffer
	if err := (JSONReporter{}).Report(&jsonBuf, rs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []struct {
			Algorithm string `json:"algorithm"`
			Portfolio []struct {
				Algorithm string `json:"algorithm"`
				Metrics   struct {
					TimeUs float64 `json:"time_us"`
				} `json:"metrics"`
			} `json:"portfolio"`
		} `json:"points"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, p := range doc.Points {
		if len(p.Portfolio) != len(sp.Allocators) {
			t.Fatalf("json point carries %d members, want %d", len(p.Portfolio), len(sp.Allocators))
		}
	}
}

// TestPortfolioAllImpliesPortfolioAndRejectsShards: normalization turns the
// diagnostic flag into portfolio mode, and the sharded entry points refuse
// it (the shard encoding carries winners only).
func TestPortfolioAllImpliesPortfolioAndRejectsShards(t *testing.T) {
	sp := smallSpace()
	sp.PortfolioAll = true
	n, err := sp.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !n.Portfolio {
		t.Fatal("PortfolioAll did not imply Portfolio")
	}
	if _, err := (Engine{}).ExploreShard(sp, 0, 2); err == nil {
		t.Fatal("ExploreShard accepted a portfolio-all space")
	}
}
