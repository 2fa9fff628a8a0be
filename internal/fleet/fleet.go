// Package fleet is the fault-tolerant multi-executor sweep driver behind
// `dse fleet`: it partitions one exploration across N executors — local
// subprocesses, in-process engines, remote `dse serve` endpoints — and
// reassembles their streams into output byte-identical to a
// single-process run, surviving the failures a real fleet produces:
//
//   - executor crash or panic: the attempt's file is salvaged
//     (internal/shard.Salvage), every validated row is kept, and only the
//     residual points re-run;
//   - hung straggler: a watchdog compares each attempt's time since its
//     last row against max(StallFloor, StallFactor × fleet-wide p99 row
//     gap) and cancels attempts that fall off the distribution;
//   - truncated or foreign checkpoint files: resume salvages valid
//     prefixes and skips pieces of other explorations (shard.ErrForeign);
//   - shedding, erroring or dead serve endpoints: 503s are retried
//     inside the attempt honoring Retry-After, other failures fail the
//     attempt, and an endpoint that keeps failing retires.
//
// Tasks hold whole (kernel, allocator, budget) units, dealt round-robin
// as shard plans deal them (split), so no unit is scheduled by two
// executors. Recovery is point-granular and work-stealing: a failed
// attempt's residual is re-partitioned across the live executors, each
// unit's remaining points kept together, so one bad host slows the sweep
// instead of stalling it. Retries back off per task and
// draw from a global attempt budget; when the budget or the executors are
// exhausted the run fails but the state directory keeps every salvaged
// row, so a rerun resumes instead of restarting.
//
// Static invariants enforced by reprovet (DESIGN.md §10):
//
//repro:recover-workers
//repro:nilsafe
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/shard"
)

// manifestName is the state-directory manifest file: it pins the
// directory to one exploration so a resume against the wrong space fails
// loudly instead of merging apples into oranges.
const manifestName = "fleet.json"

// manifest is the on-disk fleet.json.
type manifest struct {
	Format      string        `json:"format"`
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Spec        dse.SpaceSpec `json:"space"`
}

const (
	manifestFormat  = "repro-dse-fleet"
	manifestVersion = 1
)

// Config tunes one Driver.
type Config struct {
	// Dir is the checkpoint directory: every attempt streams to a task
	// file here, and a rerun over the same directory resumes from
	// whatever those files carry ("" = a fresh temp directory, i.e. no
	// resume across runs).
	Dir string
	// Tasks is the initial partition count (0 = one per executor). More
	// tasks than executors gives the scheduler slack to rebalance.
	Tasks int
	// MaxAttempts bounds how many consecutive zero-progress attempts one
	// task survives before the run fails (0 = 3). An attempt that
	// salvages at least one new row resets the count — progress is never
	// punished. A failure is charged to the task only when its executor
	// has not failed since it last made progress, so one dead executor
	// charges a task lineage at most once before MaxExecFails retires it:
	// the count measures how many executors the task has defeated, not
	// how often one bad host picked it up.
	MaxAttempts int
	// AttemptBudget bounds total dispatches across the run (0 = 8 per
	// executor + initial tasks); it is the global backstop against a
	// pathological fleet retrying forever.
	AttemptBudget int
	// Backoff is the delay before a task's first retry, doubling per
	// consecutive failure (0 = 100ms).
	Backoff time.Duration
	// StallFloor is the minimum no-progress time before an attempt can be
	// killed as a straggler (0 = 10s; watchdog disabled only by a very
	// large floor). StallFactor scales the fleet-wide p99 inter-row gap
	// into the adaptive threshold (0 = 16): an attempt is a straggler
	// when silent for max(StallFloor, StallFactor × p99).
	StallFloor  time.Duration
	StallFactor float64
	// MaxExecFails retires an executor after this many consecutive failed
	// attempts (0 = 3); a retired executor's work is stolen by the rest.
	MaxExecFails int
	// Log, when non-nil, receives one line per scheduling event.
	Log io.Writer
}

// Report is the recovery accounting of one Run — what the fault
// tolerance actually did, for logs, tests and the CI chaos smoke — and
// the run's only record of it.
type Report struct {
	Tasks       int `json:"tasks"`        // tasks ever scheduled (initial + splits)
	Attempts    int `json:"attempts"`     // dispatches consumed from the budget
	ResumedRows int `json:"resumed_rows"` // rows recovered from pre-existing checkpoint files
	Salvaged    int `json:"salvaged"`     // failed attempts that still contributed rows
	Stolen      int `json:"stolen"`       // tasks run by a different executor than their origin
	Stragglers  int `json:"stragglers"`   // attempts cancelled by the watchdog
	Retired     int `json:"retired"`      // executors removed after consecutive failures
	Duplicates  int `json:"duplicates"`   // re-delivered rows verified byte-equal
}

// Driver runs explorations across a set of executors.
type Driver struct {
	cfg   Config
	execs []Executor

	// metrics is a private registry holding one stage, fleet/rowgap: the
	// fleet-wide inter-row gap histogram straggler detection keys on.
	metrics *obs.Metrics
	rowgapT *obs.StageStats
}

// New builds a Driver over at least one executor. Executor names must be
// unique: they key the steal accounting and the log lines.
func New(cfg Config, execs ...Executor) (*Driver, error) {
	if len(execs) == 0 {
		return nil, errors.New("fleet: no executors")
	}
	seen := map[string]bool{}
	for _, e := range execs {
		if e == nil {
			return nil, errors.New("fleet: nil executor")
		}
		if seen[e.Name()] {
			return nil, fmt.Errorf("fleet: duplicate executor name %q", e.Name())
		}
		seen[e.Name()] = true
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = len(execs)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.AttemptBudget <= 0 {
		cfg.AttemptBudget = cfg.Tasks + 8*len(execs)
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.StallFloor <= 0 {
		cfg.StallFloor = 10 * time.Second
	}
	if cfg.StallFactor <= 0 {
		cfg.StallFactor = 16
	}
	if cfg.MaxExecFails <= 0 {
		cfg.MaxExecFails = 3
	}
	m := obs.New()
	return &Driver{cfg: cfg, execs: execs, metrics: m, rowgapT: m.Stage("fleet/rowgap")}, nil
}

// task is one schedulable unit: a point-set, its consecutive-failure
// count, and the executor that first ran it (for steal accounting).
type task struct {
	id     int
	points []int
	fails  int    // consecutive zero-progress attempts charged to the lineage
	origin string // first executor to attempt it ("" = fresh)
}

// Run explores the spec across the fleet and returns the reassembled
// result set — byte-identical through every reporter to a single-process
// run — plus the recovery accounting. On failure the checkpoint directory
// retains every salvaged row for a later resume.
//
//repro:nonnil a Driver only comes from New, which never returns nil without an error
func (d *Driver) Run(ctx context.Context, spec dse.SpaceSpec) (*dse.ResultSet, Report, error) {
	var rep Report
	dir := d.cfg.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "dse-fleet-"); err != nil {
			return nil, rep, err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, err
	}
	asm, err := shard.NewAssembler(spec)
	if err != nil {
		return nil, rep, err
	}
	if err := d.checkManifest(dir, spec, spec.Fingerprint()); err != nil {
		return nil, rep, err
	}
	if err := d.resume(dir, asm, &rep); err != nil {
		return nil, rep, err
	}

	missing := asm.Missing()
	if len(missing) == 0 {
		d.logf("resume covered all %d points; nothing to run", asm.Points())
		rs, err := asm.ResultSet()
		rep.Duplicates = asm.Duplicates()
		return rs, rep, err
	}

	s := &sched{
		d:     d,
		spec:  spec,
		dir:   dir,
		stamp: time.Now().UnixNano(),
		asm:   asm,
		rep:   &rep,
		queue: make(chan *task, d.cfg.Tasks+d.cfg.AttemptBudget*len(d.execs)),
		done:  make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	defer s.cancel()
	s.live.Store(int64(len(d.execs)))
	for _, pts := range split(missing, d.cfg.Tasks, spec.UnitSize()) {
		s.enqueue(&task{id: s.nextID(), points: pts})
	}

	var wg sync.WaitGroup
	for _, ex := range d.execs {
		wg.Add(1)
		ex := ex
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					s.fail(fmt.Errorf("fleet: executor %s worker panic: %v", ex.Name(), v))
				}
			}()
			s.worker(ex)
		}()
	}
	wg.Wait()

	s.mu.Lock()
	failErr := s.failErr
	s.mu.Unlock()
	if failErr == nil {
		if err := ctx.Err(); err != nil {
			failErr = err
		}
	}
	rep.Duplicates = asm.Duplicates()
	if failErr != nil {
		return nil, rep, fmt.Errorf("%w (%d of %d points checkpointed in %s)", failErr, asm.Points()-asm.Remaining(), asm.Points(), dir)
	}
	rs, err := asm.ResultSet()
	return rs, rep, err
}

// checkManifest pins dir to this exploration, writing the manifest on
// first use and verifying the fingerprint on reuse.
func (d *Driver) checkManifest(dir string, spec dse.SpaceSpec, fp string) error {
	path := filepath.Join(dir, manifestName)
	if data, err := os.ReadFile(path); err == nil {
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("fleet: corrupt manifest %s: %w", path, err)
		}
		if m.Format != manifestFormat || m.Version != manifestVersion {
			return fmt.Errorf("fleet: %s is not a v%d %s manifest", path, manifestVersion, manifestFormat)
		}
		if m.Fingerprint != fp {
			return fmt.Errorf("fleet: state dir %s belongs to exploration %s, this run is %s", dir, m.Fingerprint, fp)
		}
		return nil
	}
	data, err := json.Marshal(manifest{Format: manifestFormat, Version: manifestVersion, Fingerprint: fp, Spec: spec})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// resume salvages every task file already in dir: rows of this
// exploration are absorbed, foreign pieces are skipped, torn files
// contribute their valid prefix. Only a determinism violation (a row
// disagreeing with one already held) fails the resume.
func (d *Driver) resume(dir string, asm *shard.Assembler, rep *Report) error {
	paths, err := filepath.Glob(filepath.Join(dir, "t*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		sv, err := shard.SalvageFile(p)
		if err != nil {
			d.logf("resume: skipping %s: %v", filepath.Base(p), err)
			continue
		}
		added, err := asm.Absorb(sv)
		if errors.Is(err, shard.ErrForeign) {
			d.logf("resume: skipping %s: %v", filepath.Base(p), err)
			continue
		}
		if err != nil {
			return fmt.Errorf("fleet: resume from %s: %w", p, err)
		}
		if added > 0 {
			rep.ResumedRows += added
			d.logf("resume: %s contributed %d rows", filepath.Base(p), added)
		}
	}
	return nil
}

func (d *Driver) logf(format string, args ...any) {
	if d.cfg.Log == nil {
		return
	}
	fmt.Fprintf(d.cfg.Log, "fleet: "+format+"\n", args...)
}

// sched is the shared state of one Run's scheduling loop.
type sched struct {
	d     *Driver
	spec  dse.SpaceSpec
	dir   string
	stamp int64
	rep   *Report

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *task
	done   chan struct{} // closed when every point is covered

	pending  atomic.Int64 // tasks enqueued or running
	attempts atomic.Int64 // dispatches consumed
	live     atomic.Int64 // executors not yet retired
	taskSeq  atomic.Int64

	mu      sync.Mutex // guards asm, rep counters, failErr
	asm     *shard.Assembler
	failErr error
}

func (s *sched) nextID() int { return int(s.taskSeq.Add(1)) }

func (s *sched) enqueue(t *task) {
	s.pending.Add(1)
	s.mu.Lock()
	s.rep.Tasks++
	s.mu.Unlock()
	s.queue <- t
}

// fail records the first fatal error and stops the fleet.
func (s *sched) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.mu.Unlock()
	s.cancel()
}

// finishTask retires one pending task; the last one out shuts the fleet
// down cleanly.
func (s *sched) finishTask() {
	if s.pending.Add(-1) == 0 {
		close(s.done)
		s.cancel()
	}
}

// worker is one executor's scheduling loop: pull a task, run an attempt,
// absorb whatever landed, requeue the rest. Consecutive failures retire
// the executor; its queued work is stolen by the others.
func (s *sched) worker(ex Executor) {
	fails := 0
	for {
		var t *task
		select {
		case <-s.ctx.Done():
			return
		case t = <-s.queue:
		}
		if s.runTask(ex, t, fails) {
			fails = 0
			continue
		}
		fails++
		if fails >= s.d.cfg.MaxExecFails {
			s.mu.Lock()
			s.rep.Retired++
			s.mu.Unlock()
			s.d.logf("retiring executor %s after %d consecutive failures", ex.Name(), fails)
			if s.live.Add(-1) == 0 {
				s.fail(fmt.Errorf("fleet: all %d executors retired with work remaining", len(s.d.execs)))
			}
			return
		}
	}
}

// runTask runs one attempt of t on ex and reports whether the attempt
// made progress (covered at least one previously missing point). streak
// is ex's count of consecutive failed attempts before this one.
func (s *sched) runTask(ex Executor, t *task, streak int) bool {
	if int(s.attempts.Add(1)) > s.d.cfg.AttemptBudget {
		s.fail(fmt.Errorf("fleet: attempt budget (%d) exhausted", s.d.cfg.AttemptBudget))
		return false
	}
	s.mu.Lock()
	s.rep.Attempts++
	s.mu.Unlock()
	if t.fails > 0 {
		backoff := min(s.d.cfg.Backoff<<(t.fails-1), 5*time.Second)
		select {
		case <-time.After(backoff):
		case <-s.ctx.Done():
			return false
		}
	}
	if t.origin != "" && t.origin != ex.Name() {
		s.mu.Lock()
		s.rep.Stolen++
		s.mu.Unlock()
		s.d.logf("task %d stolen by %s from %s", t.id, ex.Name(), t.origin)
	}
	if t.origin == "" {
		t.origin = ex.Name()
	}

	path := filepath.Join(s.dir, fmt.Sprintf("t%x-%03d.a%02d.jsonl", s.stamp, t.id, t.fails))
	f, err := os.Create(path)
	if err != nil {
		s.fail(fmt.Errorf("fleet: checkpoint: %w", err))
		return false
	}
	attemptCtx, cancelAttempt := context.WithCancel(s.ctx)
	pw := newProgressWriter(f, s.d.rowgapT)
	stopWatch := make(chan struct{})
	var straggler atomic.Bool
	go func() {
		defer func() {
			if v := recover(); v != nil {
				s.fail(fmt.Errorf("fleet: watchdog panic: %v", v))
			}
		}()
		s.watch(cancelAttempt, pw, stopWatch, &straggler)
	}()
	runErr := ex.Run(attemptCtx, s.spec, t.points, pw)
	close(stopWatch)
	cancelAttempt()
	f.Close()
	if straggler.Load() {
		s.mu.Lock()
		s.rep.Stragglers++
		s.mu.Unlock()
		if runErr == nil {
			runErr = errors.New("fleet: straggler cancelled")
		}
		s.d.logf("task %d on %s killed as straggler after %d rows", t.id, ex.Name(), pw.rows.Load())
	}

	// Trust the file, not the executor: salvage whatever landed and work
	// out what is still missing.
	added := 0
	sv, svErr := shard.SalvageFile(path)
	if svErr != nil {
		s.d.logf("task %d attempt on %s left no salvageable file: %v", t.id, ex.Name(), svErr)
	} else {
		s.mu.Lock()
		added, err = s.asm.Absorb(sv)
		s.mu.Unlock()
		if err != nil {
			s.fail(fmt.Errorf("fleet: task %d on %s: %w", t.id, ex.Name(), err))
			return false
		}
	}
	s.mu.Lock()
	need := s.asm.MissingOf(t.points)
	s.mu.Unlock()

	if len(need) == 0 {
		if runErr != nil {
			// Failed by its own account, but the stream carried everything
			// — count the salvage, the task is done regardless.
			s.mu.Lock()
			s.rep.Salvaged++
			s.mu.Unlock()
		}
		s.finishTask()
		return true
	}
	if runErr == nil {
		// A "successful" run that did not cover its points is a broken
		// executor (wrong rows, foreign stream): treat as failure.
		runErr = fmt.Errorf("fleet: executor %s returned success but left %d points uncovered", ex.Name(), len(need))
	}
	if added > 0 {
		s.mu.Lock()
		s.rep.Salvaged++
		s.mu.Unlock()
	}
	s.d.logf("task %d on %s failed (%v): %d rows salvaged, %d residual", t.id, ex.Name(), runErr, added, len(need))

	fails := t.fails
	switch {
	case added > 0:
		fails = 0 // progress resets the consecutive-failure clock
	case streak == 0:
		// Charge the lineage once per executor failure streak: the pieces
		// below inherit the count, so a dead executor that keeps picking
		// them up must not charge them again before it retires.
		fails++
	}
	if fails >= s.d.cfg.MaxAttempts {
		s.fail(fmt.Errorf("fleet: task %d failed %d consecutive attempts without progress: %w", t.id, fails, runErr))
		return false
	}
	// Work-stealing: re-partition the residual across the live executors
	// so idle ones pick the pieces up immediately.
	parts := split(need, int(max(s.live.Load(), 1)), s.spec.UnitSize())
	for _, pts := range parts {
		s.enqueue(&task{id: s.nextID(), points: pts, fails: fails, origin: t.origin})
	}
	s.finishTask()
	return added > 0
}

// watch cancels an attempt that stops producing rows for longer than
// max(StallFloor, StallFactor × fleet-wide p99 row gap) — the adaptive
// straggler rule: a hung executor is detected relative to how fast the
// rest of the fleet actually is, with the floor guarding cold starts.
func (s *sched) watch(cancelAttempt func(), pw *progressWriter, stop chan struct{}, straggler *atomic.Bool) {
	tick := time.NewTicker(max(s.d.cfg.StallFloor/8, 10*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-s.ctx.Done():
			return
		case <-tick.C:
		}
		silent := time.Duration(time.Now().UnixNano() - pw.last.Load())
		if silent > s.threshold() {
			straggler.Store(true)
			cancelAttempt()
			return
		}
	}
}

// threshold is the current straggler cutoff.
func (s *sched) threshold() time.Duration {
	thr := s.d.cfg.StallFloor
	snap := s.d.metrics.Snapshot()
	if p99 := snap.Stages["fleet/rowgap"].Quantile(0.99); p99 > 0 {
		if adaptive := time.Duration(s.d.cfg.StallFactor * float64(p99)); adaptive > thr {
			thr = adaptive
		}
	}
	return thr
}

// progressWriter counts rows crossing it and feeds inter-row gaps into
// the fleet-wide rowgap histogram — the signal straggler detection keys
// on. It never buffers: partial rows must reach the checkpoint file so a
// kill leaves the longest salvageable prefix.
type progressWriter struct {
	w      io.Writer
	rowgap *obs.StageStats
	last   atomic.Int64 // unixnano of the last row (or attempt start)
	rows   atomic.Int64
}

func newProgressWriter(w io.Writer, rowgap *obs.StageStats) *progressWriter {
	pw := &progressWriter{w: w, rowgap: rowgap}
	pw.last.Store(time.Now().UnixNano())
	return pw
}

//repro:nonnil constructed unconditionally by newProgressWriter; never nil
func (pw *progressWriter) Write(b []byte) (int, error) {
	n, err := pw.w.Write(b)
	if k := bytes.Count(b[:n], []byte{'\n'}); k > 0 {
		now := time.Now().UnixNano()
		prev := pw.last.Swap(now)
		pw.rowgap.Observe(now - prev)
		pw.rows.Add(int64(k))
	}
	return n, err
}

// split partitions pts (strictly increasing) into at most n strictly
// increasing slices of whole units: the points of one (kernel, allocator,
// budget) unit, ⌊g/unit⌋ equal, stay together, and the units are dealt
// round-robin — the rule shard plans use, so no unit is scheduled by two
// tasks and task cost spreads evenly across the space's axes. Over a
// whole space, part i is exactly shard i of n.
func split(pts []int, n, unit int) [][]int {
	var out [][]int
	u := -1 // rank of g's unit among the units of pts
	for i, g := range pts {
		if i == 0 || g/unit != pts[i-1]/unit {
			u++
		}
		if u == len(out) && u < n {
			out = append(out, nil)
		}
		out[u%n] = append(out[u%n], g)
	}
	return out
}
