package shard

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/dse"
)

// TestShardMergePortfolio: a portfolio sweep must round-trip through the
// shard encoding — winner names included — to output byte-identical to the
// single-process run.
func TestShardMergePortfolio(t *testing.T) {
	sp := smallSpace()
	sp.Portfolio = true
	single, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, single)
	for _, n := range []int{1, 2, 3} {
		rs, err := mergeBufs(runShards(t, sp, n))
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if got := render(t, rs); got != want {
			t.Fatalf("%d-shard portfolio merge is not byte-identical to the single run", n)
		}
	}
}

// TestShardMergePortfolioRejectsPlainShards: a portfolio shard and a plain
// shard of the same axes are different spaces and must not merge.
func TestShardMergePortfolioRejectsPlainShards(t *testing.T) {
	sp := smallSpace()
	pf := sp
	pf.Portfolio = true
	var plain, port bytes.Buffer
	if _, err := Run(dse.Engine{}, sp, Plan{Index: 0, Count: 2}, &plain); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(dse.Engine{}, pf, Plan{Index: 1, Count: 2}, &port); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(bytes.NewReader(plain.Bytes()), bytes.NewReader(port.Bytes())); err == nil {
		t.Fatal("merging a portfolio shard with a plain shard should fail the fingerprint check")
	}
}

// TestMergeCombinesCacheStats: shard trailers carry the per-stage cache
// counters and the merge sums them.
func TestMergeCombinesCacheStats(t *testing.T) {
	sp := smallSpace()
	bufs := runShards(t, sp, 2)
	var sumPlanMisses, sumClassMisses int64
	for i, b := range bufs {
		f := salvageBytes(t, b.Bytes())
		if f.Cache.Zero() {
			t.Fatalf("shard %d trailer carries no cache stats", i)
		}
		sumPlanMisses += f.Cache.PlanMisses
		sumClassMisses += f.Cache.ClassMisses
	}
	rs, err := mergeBufs(bufs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cache.PlanMisses != sumPlanMisses || rs.Cache.ClassMisses != sumClassMisses {
		t.Errorf("merged cache stats %+v, want plan misses %d and class misses %d summed",
			rs.Cache, sumPlanMisses, sumClassMisses)
	}
	if int64(rs.UniqueSims) != rs.Cache.PlanMisses {
		t.Errorf("summed unique sims %d disagree with summed plan misses %d", rs.UniqueSims, rs.Cache.PlanMisses)
	}
}

// TestShardsSharingSimCacheDir: shards pointed at one backing directory
// recover each other's class schedules and analyses (cross-shard dedup)
// and still merge to byte-identical output.
func TestShardsSharingSimCacheDir(t *testing.T) {
	sp := smallSpace()
	single, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, single)
	dir := filepath.Join(t.TempDir(), "simcache")
	n := 3
	bufs := make([]*bytes.Buffer, n)
	var disk int64
	for i := 0; i < n; i++ {
		bufs[i] = &bytes.Buffer{}
		if _, err := Run(dse.Engine{SimCacheDir: dir}, sp, Plan{Index: i, Count: n}, bufs[i]); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		f := salvageBytes(t, bufs[i].Bytes())
		disk += f.Cache.ClassDiskHits
	}
	if disk == 0 {
		t.Error("no shard recovered work from the shared cache directory")
	}
	rs, err := mergeBufs(bufs)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, rs); got != want {
		t.Fatal("simcache-dir sharded merge is not byte-identical to the single run")
	}
}
