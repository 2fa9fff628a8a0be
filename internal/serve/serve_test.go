package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/simcache"
)

// newTestServer builds a Server over a fresh memory cache wired to a fresh
// process registry, mirroring runServe's startup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *simcache.Cache) {
	t.Helper()
	cache := simcache.New()
	metrics := obs.New()
	cache.SetObs(metrics)
	s, err := New(cache, metrics, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cache
}

func smallSpec(t *testing.T) dse.SpaceSpec {
	t.Helper()
	sp, err := dse.BuildSpace("fir", "CPA-RA,FR-RA", "16,32", "XCV1000", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	return dse.Spec(sp)
}

func postSpec(t *testing.T, url string, spec dse.SpaceSpec, format string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/explore"
	if format != "" {
		u += "?format=" + format
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExploreByteIdentity: every served format returns exactly the bytes a
// local run of the same space produces — the stock 192-point space, the
// same one CI sweeps.
func TestExploreByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("stock space sweep in -short mode")
	}
	_, ts, _ := newTestServer(t, Config{})
	sp := dse.DefaultSpace()
	spec := dse.Spec(sp)

	rs, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"table", "csv", "json"} {
		render, err := dse.RendererFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := render.Report(&want, rs); err != nil {
			t.Fatal(err)
		}
		resp := postSpec(t, ts.URL, spec, format)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", format, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: served bytes differ from local run (%d vs %d bytes)", format, len(got), want.Len())
		}
	}

	// NDJSON reassembles through the shard merge into the same result set.
	resp := postSpec(t, ts.URL, spec, "")
	nd := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson: status %d: %s", resp.StatusCode, nd)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("ndjson content type = %q", ct)
	}
	merged, err := shard.Merge(bytes.NewReader(nd))
	if err != nil {
		t.Fatalf("merge served ndjson: %v", err)
	}
	render, _ := dse.RendererFor("table")
	var want, got bytes.Buffer
	if err := render.Report(&want, rs); err != nil {
		t.Fatal(err)
	}
	if err := render.Report(&got, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("merged ndjson table differs from local run")
	}
}

// stageCounts returns the counts of the metrics doc's allocator, plan and
// simulation stages: the work a unit's schedule costs.
func stageCounts(doc MetricsDoc) map[string]int64 {
	counts := map[string]int64{}
	for name, st := range doc.Obs.Stages {
		if strings.HasPrefix(name, "alloc/") || name == "plan" || name == "sim" {
			counts[name] = st.Count
		}
	}
	return counts
}

// TestSecondRequestWarm: the service's reason to exist — a repeated spec
// recomputes nothing. The warm request misses no analysis, schedule or
// class, looks up no class at all, runs no allocator, plan or
// simulation, finds every unit in the memo, and answers the same bytes.
func TestSecondRequestWarm(t *testing.T) {
	s, ts, cache := newTestServer(t, Config{})
	spec := smallSpec(t)

	resp := postSpec(t, ts.URL, spec, "csv")
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}
	after1 := cache.Snapshot()
	if after1.ClassMisses == 0 || after1.AnalysisMisses == 0 || after1.ScheduleMisses == 0 {
		t.Fatalf("cold request computed nothing: %+v", after1)
	}
	stages1 := stageCounts(s.Doc())

	resp = postSpec(t, ts.URL, spec, "csv")
	warm := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	delta := cache.Snapshot().Sub(after1)
	if delta.ClassMisses != 0 || delta.AnalysisMisses != 0 || delta.ScheduleMisses != 0 {
		t.Errorf("warm request recomputed analyses, schedules or classes: %+v", delta)
	}
	if delta.ClassHits != 0 {
		t.Errorf("warm request looked up class schedules: %+v", delta)
	}
	if delta.ScheduleHits != after1.ScheduleMisses {
		t.Errorf("warm request found %d units in the memo, want all %d: %+v", delta.ScheduleHits, after1.ScheduleMisses, delta)
	}
	if stages2 := stageCounts(s.Doc()); len(stages1) == 0 || !maps.Equal(stages1, stages2) {
		t.Errorf("warm request ran allocator, plan or simulation stages: %v, then %v", stages1, stages2)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm response differs from cold response")
	}

	doc := s.Doc()
	if doc.Points == 0 || doc.Points%2 != 0 {
		t.Errorf("Doc points = %d, want an even accumulated total", doc.Points)
	}
	names := doc.Obs.Names()
	for _, want := range []string{"serve/request", "cache/schedule/hit", "cache/schedule/miss", "explore"} {
		if !slices.Contains(names, want) {
			t.Errorf("metrics doc missing stage %q (have %v)", want, names)
		}
	}
}

// TestNDJSONTrailerCarriesRequestDelta: the trailer's cache counters are
// this request's lookups, not the shared store's lifetime totals: a warm
// request's trailer shows every unit as a schedule hit and no miss of
// any kind, no class lookup, and no allocator, plan or simulation stage,
// and its rows are the cold request's.
func TestNDJSONTrailerCarriesRequestDelta(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	spec := smallSpec(t)
	type trailer struct {
		EOF        bool               `json:"eof"`
		UniqueSims int                `json:"unique_sims"`
		Cache      *simcache.Snapshot `json:"cache"`
		Obs        obs.Snapshot       `json:"obs"`
	}
	split := func(nd []byte) (rows string, tr trailer) {
		t.Helper()
		body := strings.TrimSpace(string(nd))
		i := strings.LastIndexByte(body, '\n')
		if err := json.Unmarshal([]byte(body[i+1:]), &tr); err != nil || !tr.EOF {
			t.Fatalf("last line is not a trailer: %v %q", err, body[i+1:])
		}
		if tr.Cache == nil {
			t.Fatal("trailer carries no cache snapshot")
		}
		return body[:i+1], tr
	}
	coldRows, cold := split(readBody(t, postSpec(t, ts.URL, spec, ""))) // warm the store
	warmRows, warm := split(readBody(t, postSpec(t, ts.URL, spec, "")))

	if cold.Cache.ScheduleMisses == 0 || cold.Obs.Stages["plan"].Count == 0 {
		t.Fatalf("cold request trailer reports no schedule misses or no plan stage: %+v", *cold.Cache)
	}
	c := *warm.Cache
	if c.ClassMisses != 0 || c.ScheduleMisses != 0 || c.PlanMisses != 0 {
		t.Errorf("warm request trailer reports misses: %+v", c)
	}
	if c.ClassHits != 0 || c.PlanHits != 0 || warm.UniqueSims != 0 {
		t.Errorf("warm request trailer reports simulation lookups: %+v, %d unique simulations", c, warm.UniqueSims)
	}
	if c.ScheduleHits != cold.Cache.ScheduleMisses {
		t.Errorf("warm request trailer reports %d schedule hits, want every unit's %d", c.ScheduleHits, cold.Cache.ScheduleMisses)
	}
	// The front-end memo is process-lifetime: the warm request's analyze
	// stage is all hits, no misses.
	if c.AnalysisMisses != 0 {
		t.Errorf("warm request trailer reports analysis misses: %+v", c)
	}
	if c.AnalysisHits == 0 {
		t.Errorf("warm request trailer reports no analysis hits: %+v", c)
	}
	for name, st := range warm.Obs.Stages {
		if (strings.HasPrefix(name, "alloc/") || name == "plan" || name == "sim") && st.Count != 0 {
			t.Errorf("warm request trailer reports stage %s %d times", name, st.Count)
		}
	}
	if warmRows != coldRows {
		t.Error("warm request rows differ from the cold request's")
	}
}

// TestConcurrentWarmTrailersCountTheirOwnLookups: two warm NDJSON
// requests running at once on one server each carry a sequential warm
// request's cache counters in their trailer, never the other request's
// lookups, in each of 20 rounds.
func TestConcurrentWarmTrailersCountTheirOwnLookups(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxInflight: 2})
	spec := dse.Spec(dse.DefaultSpace())
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	trailerCache := func(nd []byte) (simcache.Snapshot, error) {
		lines := bytes.Split(bytes.TrimSpace(nd), []byte("\n"))
		var tr struct {
			EOF   bool               `json:"eof"`
			Cache *simcache.Snapshot `json:"cache"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.EOF || tr.Cache == nil {
			return simcache.Snapshot{}, fmt.Errorf("the last line is no trailer with a cache snapshot (%v): %.200s", err, lines[len(lines)-1])
		}
		return *tr.Cache, nil
	}
	readBody(t, postSpec(t, ts.URL, spec, "")) // warm the store and the memo
	want, err := trailerCache(readBody(t, postSpec(t, ts.URL, spec, "")))
	if err != nil {
		t.Fatal(err)
	}
	if want.ScheduleHits != 96 || want.ScheduleMisses != 0 {
		t.Fatalf("a sequential warm request's trailer counts %+v, want 96 schedule hits and no miss", want)
	}
	for round := range 20 {
		var got [2]simcache.Snapshot
		var errs [2]error
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() { //repro:norecover an HTTP round trip read into a buffer
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, errs[i] = buf.ReadFrom(resp.Body); errs[i] == nil {
					got[i], errs[i] = trailerCache(buf.Bytes())
				}
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("round %d, request %d: %v", round, i, errs[i])
			}
			if got[i] != want {
				t.Fatalf("round %d, request %d: trailer counts %+v, want %+v", round, i, got[i], want)
			}
		}
	}
}

// TestNewUnitsReuseClasses: the stock spec after the same spec without
// budget 128 schedules only its 24 budget-128 units and finds the other
// 72 in the memo; every class schedule the new units need was computed
// for the old ones.
func TestNewUnitsReuseClasses(t *testing.T) {
	_, ts, cache := newTestServer(t, Config{})
	spec := dse.Spec(dse.DefaultSpace())
	part := spec
	part.Budgets = slices.DeleteFunc(slices.Clone(spec.Budgets), func(b int) bool { return b == 128 })
	post := func(sp dse.SpaceSpec) {
		t.Helper()
		resp := postSpec(t, ts.URL, sp, "csv")
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	post(part)
	before := cache.Snapshot()
	post(spec)
	d := cache.Snapshot().Sub(before)
	if d.ScheduleMisses != 24 || d.ScheduleHits != 72 {
		t.Errorf("the stock spec after its budgets 16-64 scheduled %d units and found %d, want 24 and 72: %+v", d.ScheduleMisses, d.ScheduleHits, d)
	}
	if d.ClassMisses != 0 || d.ClassHits == 0 {
		t.Errorf("the new units computed %d class schedules and found %d, want 0 and some: %+v", d.ClassMisses, d.ClassHits, d)
	}
}

// TestConcurrentRequestsMatchTheCLI: four concurrent stock requests, two
// CSV and two NDJSON, read the process's shared kernels and build their
// own label sets; each answers the CLI's bytes. The limits are `dse
// serve`'s defaults, so two requests queue.
func TestConcurrentRequestsMatchTheCLI(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxInflight: 2, MaxQueue: 16})
	sp := dse.DefaultSpace()
	csv, err := dse.RendererFor("csv")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := (dse.Engine{}).ExploreStream(sp, csv.Stream(&want)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(dse.Spec(sp))
	if err != nil {
		t.Fatal(err)
	}
	formats := []string{"csv", "", "csv", ""}
	got := make([][]byte, len(formats))
	errs := make([]error, len(formats))
	var wg sync.WaitGroup
	for i, format := range formats {
		wg.Add(1)
		go func() { //repro:norecover an HTTP round trip read into a buffer
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/explore?format="+format, "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, errs[i] = buf.ReadFrom(resp.Body); errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
			}
			got[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i, format := range formats {
		if errs[i] != nil {
			t.Fatalf("request %d (%q): %v", i, format, errs[i])
		}
		b := got[i]
		if format == "" {
			rs, err := shard.Merge(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("request %d: merge the NDJSON answer: %v", i, err)
			}
			var merged bytes.Buffer
			if err := csv.Report(&merged, rs); err != nil {
				t.Fatal(err)
			}
			b = merged.Bytes()
		}
		if !bytes.Equal(b, want.Bytes()) {
			t.Errorf("request %d (%q): %d bytes of CSV, the CLI prints %d", i, format, len(b), want.Len())
		}
	}
}

func TestExploreValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Trailing data after the spec: `dse -space` (json.Unmarshal)
	// rejects these bytes, and so must the server, instead of sweeping
	// the first value. Trailing whitespace is no data.
	good, err := json.Marshal(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tail string
		code int
	}{
		{string(good), http.StatusBadRequest},
		{" junk", http.StatusBadRequest},
		{"{}", http.StatusBadRequest},
		{" \n\t\r\n", http.StatusOK},
		// The cap bounds the whole body, whitespace included.
		{strings.Repeat(" ", maxSpecSize), http.StatusBadRequest},
	} {
		body := string(good) + c.tail
		resp, err := http.Post(ts.URL+"/v1/explore?format=csv", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if msg := readBody(t, resp); resp.StatusCode != c.code {
			t.Errorf("spec followed by %d bytes %.8q: status %d, want %d: %s", len(c.tail), c.tail, resp.StatusCode, c.code, msg)
		}
	}

	// Unknown kernel.
	spec := smallSpec(t)
	spec.Kernels = []string{"nope"}
	resp = postSpec(t, ts.URL, spec, "")
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kernel: status %d, want 400", resp.StatusCode)
	}

	// Empty axis.
	spec = smallSpec(t)
	spec.Budgets = nil
	resp = postSpec(t, ts.URL, spec, "")
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty axis: status %d, want 400", resp.StatusCode)
	}

	// Unknown format.
	resp = postSpec(t, ts.URL, smallSpec(t), "yaml")
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestQueueReject: with every in-flight slot held and no queue, a request
// is shed immediately with 503.
// TestExploreRejectsOversizedSpace: a body of about 330 KB, under
// maxSpecSize, can describe 6 kernels × 4 allocators × 150,001 budgets ×
// 2,778 devices — 1e10 design points, whose index state alone is 80 GB.
// The spec's size is checked where it is resolved, so the request gets a
// 400 before anything is sized from it.
func TestExploreRejectsOversizedSpace(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	spec := dse.Spec(dse.DefaultSpace())
	spec.Budgets = make([]int, 150001)
	spec.Devices = slices.Repeat([]string{"XCV1000"}, 2778)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= maxSpecSize {
		t.Fatalf("body is %d bytes, not under maxSpecSize", len(body))
	}
	resp, err := http.Post(ts.URL+"/v1/explore?format=csv", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exceeds") {
		t.Fatalf("oversized space: status %d: %s", resp.StatusCode, msg)
	}
}

func TestQueueReject(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 0})
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()

	resp := postSpec(t, ts.URL, smallSpec(t), "csv")
	if readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
}

// TestQueueWaitsForSlot: a queued request proceeds once the slot frees.
func TestQueueWaitsForSlot(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	s.sem <- struct{}{}
	go func() { //repro:norecover trivial timed receive, cannot panic
		time.Sleep(50 * time.Millisecond)
		<-s.sem
	}()
	resp := postSpec(t, ts.URL, smallSpec(t), "csv")
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("status %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestDeadline: a request whose budget cannot cover the sweep fails with
// 504 (buffered formats; the stream acknowledges at row granularity). The
// budget is one nanosecond — expired before dispatch starts — so the test
// does not depend on how fast the sweep itself runs.
func TestDeadline(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Timeout: time.Nanosecond})
	resp := postSpec(t, ts.URL, smallSpec(t), "csv")
	if body := readBody(t, resp); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", resp.StatusCode)
	}
	explore := postSpec(t, ts.URL, smallSpec(t), "csv")
	if readBody(t, explore); explore.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining explore: status %d, want 503", explore.StatusCode)
	}

	s.SetDraining(false)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("undrained healthz: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsEndpointAliases: /v1/metrics and the legacy /metrics alias
// serve the same document shape.
func TestMetricsEndpointAliases(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, path := range []string{"/v1/metrics", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var doc MetricsDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if doc.Format != MetricsFormat || doc.Version != MetricsVersion {
			t.Errorf("%s: doc header = %s v%d", path, doc.Format, doc.Version)
		}
	}
}

// TestMemoryOnlyServerHasNoBlobEndpoint: no server mounts /v1/blob/, over
// a memory store or a directory-backed one; the blob protocol is gone
// (DESIGN.md §22).
func TestMemoryOnlyServerHasNoBlobEndpoint(t *testing.T) {
	dirCache, err := simcache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*simcache.Cache{simcache.New(), dirCache} {
		s, err := New(cache, obs.New(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		resp, err := http.Get(ts.URL + "/v1/blob/f/" + strings.Repeat("ab", 32))
		if err != nil {
			t.Fatal(err)
		}
		if readBody(t, resp); resp.StatusCode != http.StatusNotFound {
			t.Errorf("dir %q: status %d, want 404", cache.Dir(), resp.StatusCode)
		}
	}
}

// postSlice POSTs a spec with extra query parameters (shard=, points=).
func postSlice(t *testing.T, url string, spec dse.SpaceSpec, query string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/explore?"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShedCarriesRetryAfter: every 503 shed — queue-full and draining —
// carries the one-second Retry-After hint.
func TestShedCarriesRetryAfter(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 0})
	s.sem <- struct{}{}
	resp := postSpec(t, ts.URL, smallSpec(t), "csv")
	if readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("busy Retry-After = %q, want \"1\"", got)
	}
	<-s.sem

	s.SetDraining(true)
	resp = postSpec(t, ts.URL, smallSpec(t), "csv")
	if readBody(t, resp); resp.Header.Get("Retry-After") != "1" {
		t.Errorf("draining explore Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.Header.Get("Retry-After") != "1" {
		t.Errorf("draining healthz Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
}

// TestServedShardSlice: shard=i/n slices from the service merge back into
// an exploration whose rendered output is byte-identical to a local run —
// the property that lets a fleet driver use remote servers as executors.
func TestServedShardSlice(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	spec := smallSpec(t)
	sp, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	var parts []*bytes.Reader
	for i := 0; i < 2; i++ {
		resp := postSlice(t, ts.URL, spec, fmt.Sprintf("shard=%d/2", i))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", i, resp.StatusCode, body)
		}
		s, err := shard.Salvage(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !s.Complete {
			t.Fatalf("served shard %d incomplete", i)
		}
		parts = append(parts, bytes.NewReader(body))
	}
	merged, err := shard.Merge(parts[0], parts[1])
	if err != nil {
		t.Fatalf("merge of served shards: %v", err)
	}
	rs, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	render, _ := dse.RendererFor("table")
	var want, got bytes.Buffer
	if err := render.Report(&want, rs); err != nil {
		t.Fatal(err)
	}
	if err := render.Report(&got, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("merged served shards render differently from a local run")
	}
}

// TestServedPointsSlice: points= returns a task file salvage recognizes as
// complete, carrying exactly the requested rows.
func TestServedPointsSlice(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp := postSlice(t, ts.URL, smallSpec(t), "points=0,1,3")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	s, err := shard.Salvage(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete || s.Rows() != 3 {
		t.Fatalf("task salvage: complete=%v rows=%d stop=%v", s.Complete, s.Rows(), s.Stop)
	}
	if want := []int{0, 1, 3}; !slices.Equal(s.Owned, want) {
		t.Fatalf("owned %v, want %v", s.Owned, want)
	}
}

// TestSliceValidation: malformed or misdirected slice requests are 400s.
func TestSliceValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for name, query := range map[string]string{
		"slice with buffered format": "shard=0/2&format=csv",
		"both shard and points":      "shard=0/2&points=1",
		"bad shard":                  "shard=2/2",
		"bad points":                 "points=1,zonk",
		"out-of-range points":        "points=999999",
		"unsorted points":            "points=3,1",
	} {
		resp := postSlice(t, ts.URL, smallSpec(t), query)
		if body := readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}
}
