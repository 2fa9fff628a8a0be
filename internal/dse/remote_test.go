package dse

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/simcache"
)

// TestRemoteSimcacheDedup is the networked analogue of the shared-directory
// shard round trip: two engines that share nothing but a blob server must
// dedup simulation work — the first populates the store through its PUTs,
// the second recovers every class schedule remotely and computes none.
// Analyses do not travel: each engine computes its own.
func TestRemoteSimcacheDedup(t *testing.T) {
	store, err := simcache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := simcache.NewBlobHandler(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	sp := smallSpace()
	run := func() (*ResultSet, simcache.Snapshot) {
		c := simcache.New()
		c.SetRemote(simcache.NewRemote(srv.URL))
		rs := mustExplore(t, Engine{Workers: 2, SimCache: c}, sp)
		return rs, c.Snapshot()
	}

	rsA, snapA := run()
	if snapA.ClassMisses == 0 || snapA.AnalysisMisses == 0 {
		t.Fatalf("first engine should compute class schedules and analyses, got %+v", snapA)
	}
	if snapA.ClassRemoteHits != 0 || snapA.AnalysisRemoteHits != 0 {
		t.Fatalf("first engine hit an empty store: %+v", snapA)
	}

	rsB, snapB := run()
	if snapB.ClassMisses != 0 {
		t.Errorf("second engine recomputed class schedules: %+v", snapB)
	}
	if snapB.ClassRemoteHits == 0 {
		t.Errorf("second engine did not hit the remote store: %+v", snapB)
	}
	if snapB.AnalysisMisses != snapA.AnalysisMisses || snapB.AnalysisRemoteHits != 0 {
		t.Errorf("second engine should analyze as the first did (%d misses), not fetch: %+v", snapA.AnalysisMisses, snapB)
	}
	if snapB.ClassRemoteHits+snapB.ClassHits != snapA.ClassMisses+snapA.ClassHits {
		t.Errorf("lookup totals drifted: A %+v, B %+v", snapA, snapB)
	}

	// The remote tier is an accelerator only: results are byte-identical.
	var a, b bytes.Buffer
	if err := (CSVReporter{Pareto: true}).Report(&a, rsA); err != nil {
		t.Fatal(err)
	}
	if err := (CSVReporter{Pareto: true}).Report(&b, rsB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("remote-warmed run differs from cold run")
	}
}

// TestEngineSimCachePrecedence: a provided SimCache wins over SimCacheDir,
// and it and a provided analysis memo accumulate across explorations —
// the long-running-service contract.
func TestEngineSimCachePrecedence(t *testing.T) {
	shared := simcache.New()
	e := Engine{Workers: 2, SimCache: shared, Analyses: NewAnalysisCache(), SimCacheDir: t.TempDir() + "/never-created"}
	sp := smallSpace()
	mustExplore(t, e, sp)
	first := shared.Snapshot()
	if first.ClassMisses == 0 {
		t.Fatalf("shared cache saw no lookups: %+v", first)
	}
	mustExplore(t, e, sp)
	second := shared.Snapshot().Sub(first)
	if second.ClassMisses != 0 || second.AnalysisMisses != 0 {
		t.Errorf("second exploration recomputed through the shared cache: %+v", second)
	}
	if second.ClassHits == 0 {
		t.Errorf("second exploration did not reuse the shared cache: %+v", second)
	}
}
