package fleet_test

// Driver-level tests live outside the package so they can compose with
// the chaos harness (faultinject imports fleet for the Executor type).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/fleet/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/simcache"
)

// testSpace is a 16-point space: big enough to partition and kill
// mid-stream, small enough to sweep in milliseconds.
func testSpace(t *testing.T) (dse.Space, dse.SpaceSpec) {
	t.Helper()
	sp, err := dse.BuildSpace("fir,mat", "CPA-RA,FR-RA", "16,32,64,128", "XCV1000", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	return sp, dse.Spec(sp)
}

// render renders a result set in all three formats.
func render(t *testing.T, rs *dse.ResultSet) [3]string {
	t.Helper()
	var out [3]string
	for i, format := range [3]string{"table", "csv", "json"} {
		rep, err := dse.RendererFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Report(&buf, rs); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.String()
	}
	return out
}

// wantRender is the single-process ground truth.
func wantRender(t *testing.T, sp dse.Space) [3]string {
	t.Helper()
	rs, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	return render(t, rs)
}

// assertIdentical asserts fleet output equals the single-process run in
// every format.
func assertIdentical(t *testing.T, want [3]string, rs *dse.ResultSet) {
	t.Helper()
	got := render(t, rs)
	for i, format := range [3]string{"table", "csv", "json"} {
		if got[i] != want[i] {
			t.Errorf("%s output differs from single-process run", format)
		}
	}
}

func engineExec(label string) *fleet.EngineExecutor {
	return &fleet.EngineExecutor{Label: label, Engine: dse.Engine{Workers: 2}}
}

// brokenExec fails every attempt without writing a byte.
type brokenExec struct{ label string }

func (b *brokenExec) Name() string { return b.label }
func (b *brokenExec) Run(context.Context, dse.SpaceSpec, []int, io.Writer) error {
	return errors.New("broken host")
}

// hangExec writes nothing and blocks until cancelled — the straggler.
type hangExec struct{ label string }

func (h *hangExec) Name() string { return h.label }
func (h *hangExec) Run(ctx context.Context, _ dse.SpaceSpec, _ []int, _ io.Writer) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestFleetByteIdentity: the no-fault baseline — three in-process
// executors produce output byte-identical to a single-process run.
func TestFleetByteIdentity(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	d, err := fleet.New(fleet.Config{Tasks: 5},
		engineExec("a"), engineExec("b"), engineExec("c"))
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	if rep.Tasks != 5 || rep.Attempts != 5 {
		t.Errorf("report %+v, want 5 tasks / 5 attempts", rep)
	}
	if rep.Salvaged+rep.Stolen+rep.Stragglers+rep.Retired != 0 {
		t.Errorf("fault counters nonzero on a healthy run: %+v", rep)
	}
}

// killThenOpen runs the flaky executor and opens the gate once its
// attempts have all been killed.
type killThenOpen struct {
	*faultinject.KillAfterRows
	gate *gatedExec
	once sync.Once
}

func (k *killThenOpen) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	err := k.KillAfterRows.Run(ctx, spec, points, w)
	if k.Killed() >= k.Times {
		k.once.Do(func() { close(k.gate.release) })
	}
	return err
}

// TestFleetSurvivesKilledExecutor: an executor whose first two attempts
// die mid-stream costs nothing — the salvaged prefixes are kept, the
// residuals re-run, output stays byte-identical.
//
// The steady executor's attempts wait until the flaky one has been killed
// twice; otherwise a fast steady executor could drain both tasks and the
// residuals first. The wait cannot deadlock: steady holds at most one of
// the two 8-point tasks, so flaky pulls the other and is killed after four
// lines, salvaging three rows. The progress resets the task's failure
// count, and the five-point residual is requeued as 3- and 2-point pieces
// with no backoff. Flaky pulls one and is killed again, since any piece of
// two or more points streams at least four lines. The test's deadline
// bounds the wait all the same.
func TestFleetSurvivesKilledExecutor(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	killer := &faultinject.KillAfterRows{Exec: engineExec("flaky"), Rows: 4, Times: 2}
	steady := &gatedExec{inner: engineExec("steady"), entered: make(chan struct{}), release: make(chan struct{})}
	d, err := fleet.New(fleet.Config{Tasks: 2}, &killThenOpen{KillAfterRows: killer, gate: steady}, steady)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rs, rep, err := d.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	if killer.Killed() != 2 {
		t.Errorf("killed %d attempts, want 2", killer.Killed())
	}
	if rep.Salvaged == 0 {
		t.Errorf("no salvaged attempts counted: %+v", rep)
	}
}

// TestFleetSharedFrontEnd: executors sharing one store and one analysis
// memo derive each kernel's front-end exactly once fleet-wide — even with
// an executor dying mid-stream, a retry or steal re-analyzes nothing —
// and the output stays byte-identical to the single-process run.
func TestFleetSharedFrontEnd(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	store := simcache.New()
	analyses := dse.NewAnalysisCache()
	mk := func(label string) *fleet.EngineExecutor {
		return &fleet.EngineExecutor{Label: label, Engine: dse.Engine{Workers: 2, SimCache: store, Analyses: analyses}}
	}
	killer := &faultinject.KillAfterRows{Exec: mk("flaky"), Rows: 3, Times: 1}
	d, err := fleet.New(fleet.Config{Tasks: 4}, killer, mk("steady"))
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	s := store.Snapshot()
	if s.AnalysisMisses != 2 {
		t.Errorf("analysis misses = %d, want 2 (one derivation per kernel fleet-wide)", s.AnalysisMisses)
	}
	if s.AnalysisHits == 0 {
		t.Error("no analysis memo hits across attempts")
	}
}

// failThenOpen fails every attempt without writing a byte, and opens
// release on its after-th failure. One executor's attempts run one at a
// time, so fails needs no lock.
type failThenOpen struct {
	brokenExec
	release chan struct{}
	after   int
	fails   int
}

func (f *failThenOpen) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	if f.fails++; f.fails == f.after {
		close(f.release)
	}
	return f.brokenExec.Run(ctx, spec, points, w)
}

// TestFleetWorkStealing: a dead executor's tasks migrate to the healthy
// one, the dead one retires, and the sweep still completes identically.
//
// The healthy executor's attempts wait until the dead one has failed
// twice and so retired; otherwise it could drain both tasks before the
// dead one ran. The wait cannot deadlock: the healthy executor holds at
// most one of the two tasks, so the dead one pulls the other, and pulls
// it again after failing. The test's deadline bounds the wait all the
// same.
func TestFleetWorkStealing(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	release := make(chan struct{})
	d, err := fleet.New(fleet.Config{Tasks: 2, MaxExecFails: 2, Backoff: time.Millisecond},
		&failThenOpen{brokenExec: brokenExec{label: "dead"}, release: release, after: 2},
		&gatedExec{inner: engineExec("alive"), entered: make(chan struct{}), release: release})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rs, rep, err := d.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	if rep.Stolen == 0 {
		t.Errorf("no steals recorded: %+v", rep)
	}
	if rep.Retired != 1 {
		t.Errorf("retired = %d, want 1: %+v", rep.Retired, rep)
	}
}

// TestFleetStragglerKilled: an executor that hangs without producing rows
// is cancelled by the watchdog and its work completes elsewhere.
func TestFleetStragglerKilled(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	d, err := fleet.New(fleet.Config{
		Tasks: 2, StallFloor: 300 * time.Millisecond, StallFactor: 1,
		MaxExecFails: 1, Backoff: time.Millisecond,
	}, &hangExec{label: "stuck"}, engineExec("alive"))
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	if rep.Stragglers == 0 {
		t.Errorf("no stragglers recorded: %+v", rep)
	}
}

// TestFleetResume: a run that dies with work remaining leaves a
// checkpoint directory a second run completes from, without re-running
// the covered points and with byte-identical output.
func TestFleetResume(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	dir := t.TempDir()

	// Phase 1: a killer executor and a budget too small to finish.
	killer := &faultinject.KillAfterRows{Exec: engineExec("flaky"), Rows: 5}
	d1, err := fleet.New(fleet.Config{Dir: dir, Tasks: 1, AttemptBudget: 2, Backoff: time.Millisecond}, killer)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d1.Run(context.Background(), spec); err == nil {
		t.Fatal("budget-starved run succeeded; test needs it to fail")
	}

	// Phase 2: a healthy fleet over the same directory resumes.
	d2, err := fleet.New(fleet.Config{Dir: dir, Tasks: 2}, engineExec("a"), engineExec("b"))
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := d2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	if rep.ResumedRows == 0 {
		t.Errorf("nothing resumed from checkpoints: %+v", rep)
	}
}

// TestFleetResumeSkipsForeignAndGarbageFiles: alien files in the state
// directory — another exploration's shard, plain garbage, a truncated
// own-file — cannot poison a resume.
func TestFleetResumeSkipsForeignAndGarbageFiles(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	dir := t.TempDir()

	// A foreign (different space) but well-formed task file.
	otherSp, err := dse.BuildSpace("fir", "CPA-RA", "64", "XCV1000", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	var foreign bytes.Buffer
	pts := []int{0}
	if _, err := (dse.Engine{}).ExploreSubsetStream(context.Background(), otherSp, pts, shard.NewTaskWriter(&foreign, pts)); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"t0-foreign.jsonl": foreign.Bytes(),
		"t0-garbage.jsonl": []byte("not a shard file at all\n"),
		"t0-torn.jsonl":    foreign.Bytes()[:10],
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, err := fleet.New(fleet.Config{Dir: dir}, engineExec("a"))
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
	if rep.ResumedRows != 0 {
		t.Errorf("foreign rows resumed into this exploration: %+v", rep)
	}
}

// TestFleetManifestMismatch: a state directory belongs to one
// exploration; pointing a different space at it is an error, not a merge.
func TestFleetManifestMismatch(t *testing.T) {
	_, spec := testSpace(t)
	dir := t.TempDir()
	d, err := fleet.New(fleet.Config{Dir: dir}, engineExec("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	otherSp, err := dse.BuildSpace("fir", "CPA-RA", "64", "XCV1000", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Run(context.Background(), dse.Spec(otherSp)); err == nil || !strings.Contains(err.Error(), "belongs to exploration") {
		t.Fatalf("foreign state dir accepted: %v", err)
	}
}

// TestFleetAllExecutorsRetired: a fleet of only dead hosts fails with a
// diagnosable error instead of hanging.
func TestFleetAllExecutorsRetired(t *testing.T) {
	_, spec := testSpace(t)
	d, err := fleet.New(fleet.Config{MaxExecFails: 2, Backoff: time.Millisecond},
		&brokenExec{label: "dead1"}, &brokenExec{label: "dead2"})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := d.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("all-dead fleet succeeded")
	}
	if !strings.Contains(err.Error(), "retired") && !strings.Contains(err.Error(), "budget") {
		t.Errorf("unhelpful failure: %v", err)
	}
	if rep.Retired == 0 && !strings.Contains(err.Error(), "budget") {
		t.Errorf("no retirements recorded: %+v", rep)
	}
}

// gatedExec holds its attempts until release closes, after signalling
// entered on its first attempt.
type gatedExec struct {
	inner   fleet.Executor
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedExec) Name() string { return g.inner.Name() }
func (g *gatedExec) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	g.once.Do(func() { close(g.entered) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.inner.Run(ctx, spec, points, w)
}

// deadAfterGate fails every attempt without writing a byte, but only once
// the gated executor holds its task, and opens the gate on its third
// failure.
type deadAfterGate struct {
	gate  *gatedExec
	fails int
}

func (d *deadAfterGate) Name() string { return "dead" }
func (d *deadAfterGate) Run(ctx context.Context, _ dse.SpaceSpec, _ []int, _ io.Writer) error {
	select {
	case <-d.gate.entered:
	case <-ctx.Done():
		return ctx.Err()
	}
	if d.fails++; d.fails == 3 {
		close(d.gate.release)
	}
	return errors.New("broken host")
}

// TestFleetDeadExecutorChargesTaskOnce: a dead executor that keeps picking
// up the residual pieces of one task while the healthy executor is busy
// charges that lineage once per failure streak, not once per attempt. Two
// one-point tasks pin the schedule: the healthy executor holds one until
// the dead one has failed three times in a row on the other's lineage,
// which used to exhaust MaxAttempts (3) before MaxExecFails (4) retired
// the dead host.
func TestFleetDeadExecutorChargesTaskOnce(t *testing.T) {
	sp, err := dse.BuildSpace("figure1", "FR-RA", "16,32", "XCV1000", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	want := wantRender(t, sp)
	healthy := &gatedExec{inner: engineExec("steady"), entered: make(chan struct{}), release: make(chan struct{})}
	dead := &deadAfterGate{gate: healthy}
	d, err := fleet.New(fleet.Config{Tasks: 2, Backoff: time.Millisecond, MaxExecFails: 4}, dead, healthy)
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := d.Run(context.Background(), dse.Spec(sp))
	if err != nil {
		t.Fatalf("%v (report %+v)", err, rep)
	}
	assertIdentical(t, want, rs)
	if dead.fails < 3 {
		t.Errorf("dead executor failed %d times, want ≥ 3", dead.fails)
	}
}

// poisonExec fails, without writing a byte, every attempt whose point set
// holds the poison point, and runs every other attempt normally.
type poisonExec struct {
	fleet.Executor
	poison int
}

func (p *poisonExec) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	if slices.Contains(points, p.poison) {
		return errors.New("poisoned point")
	}
	return p.Executor.Run(ctx, spec, points, w)
}

// TestFleetPoisonTaskExhaustsAttempts: a task no executor can make
// progress on fails the run on MaxAttempts, even though each executor
// charges it once per failure streak and the other tasks keep
// succeeding.
func TestFleetPoisonTaskExhaustsAttempts(t *testing.T) {
	_, spec := testSpace(t)
	var execs []fleet.Executor
	for _, label := range []string{"a", "b", "c"} {
		execs = append(execs, &poisonExec{Executor: engineExec(label), poison: 5})
	}
	d, err := fleet.New(fleet.Config{Tasks: 4, Backoff: time.Millisecond}, execs...)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := d.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("a run with a poison point succeeded")
	}
	if !strings.Contains(err.Error(), "consecutive attempts without progress") {
		t.Errorf("err = %v, want the MaxAttempts failure (report %+v)", err, rep)
	}
}

// TestFleetHTTPExecutor: a real `dse serve` endpoint (over httptest) as
// an executor, alongside a local engine — the multi-host shape.
func TestFleetHTTPExecutor(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	cache := simcache.New()
	metrics := obs.New()
	cache.SetObs(metrics)
	srv, err := serve.New(cache, metrics, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	d, err := fleet.New(fleet.Config{Tasks: 3},
		&fleet.HTTPExecutor{Label: "remote", Base: ts.URL},
		engineExec("local"))
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, rs)
}

// TestFleetHTTPExecutorSurvivesCutsAndSheds: the remote endpoint sheds
// and cuts streams mid-body (seeded); salvage and retry still converge to
// byte-identical output.
func TestFleetHTTPExecutorSurvivesCutsAndSheds(t *testing.T) {
	sp, spec := testSpace(t)
	want := wantRender(t, sp)
	cache := simcache.New()
	metrics := obs.New()
	cache.SetObs(metrics)
	srv, err := serve.New(cache, metrics, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	proxy := httptest.NewServer(&faultinject.Proxy{
		Target: ts.URL,
		T: &faultinject.Transport{
			S:        faultinject.NewSchedule(42),
			ShedRate: 0.3, RetryAfterSecs: 0, CutRate: 0.4, CutAfter: 400,
		},
	})
	defer proxy.Close()

	d, err := fleet.New(fleet.Config{
		Tasks: 4, Backoff: time.Millisecond, AttemptBudget: 64,
		MaxExecFails: 8,
	},
		&fleet.HTTPExecutor{Label: "remote", Base: proxy.URL, MaxShedWait: 10 * time.Millisecond},
		engineExec("local"))
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fleet did not survive seeded faults: %v (report %+v)", err, rep)
	}
	assertIdentical(t, want, rs)
}

// TestFleetChaosStock192 is the seeded chaos property test over the
// stock 192-point space: killed attempts, a dead host, and a flaky
// remote — the fleet must still produce output byte-identical to the
// single-process run in every format.
//
// The flaky and steady executors' attempts wait until the dead one has
// failed once; otherwise the two could drain all four tasks before it
// ran, and nothing would be stolen. The wait cannot deadlock: the two
// hold at most two of the four tasks, so the dead executor pulls one and
// fails. The test's deadline bounds the wait all the same.
func TestFleetChaosStock192(t *testing.T) {
	if testing.Short() {
		t.Skip("stock space chaos sweep in -short mode")
	}
	sp := dse.DefaultSpace()
	spec := dse.Spec(sp)
	want := wantRender(t, sp)

	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched := faultinject.NewSchedule(seed)
			killer := &faultinject.KillAfterRows{
				Exec:  engineExec("flaky"),
				Rows:  10 + sched.Intn(40),
				Times: 2 + sched.Intn(2),
			}
			release := make(chan struct{})
			gated := func(ex fleet.Executor) *gatedExec {
				return &gatedExec{inner: ex, entered: make(chan struct{}), release: release}
			}
			d, err := fleet.New(fleet.Config{
				Tasks: 4, Backoff: time.Millisecond,
				MaxExecFails: 4, AttemptBudget: 64,
			}, gated(killer), &failThenOpen{brokenExec: brokenExec{label: "dead"}, release: release, after: 1}, gated(engineExec("steady")))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rs, rep, err := d.Run(ctx, spec)
			if err != nil {
				t.Fatalf("seed %d: %v (report %+v)", seed, err, rep)
			}
			assertIdentical(t, want, rs)
			if rep.Salvaged == 0 || rep.Stolen == 0 {
				t.Errorf("seed %d: chaos produced no recovery work: %+v", seed, rep)
			}
		})
	}
}
