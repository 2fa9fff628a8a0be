package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/shard"
)

// An Executor evaluates one explicit point-set of an exploration and
// writes the portable task-file encoding (shard header with an owned
// list, rows in increasing owned order, completeness trailer) to w. The
// driver never trusts an executor's return value alone: whatever landed
// in w is salvaged afterwards, so an executor that crashes, hangs, or
// lies about success costs only the points its stream did not carry.
//
// Run must honor ctx: the driver cancels stragglers and expects the call
// to return promptly, leaving w truncated mid-row at worst.
type Executor interface {
	Name() string
	Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error
}

// EngineExecutor runs points in-process on its own engine — the executor
// the tests (and single-host fleets) use. The Engine value is copied per
// Run, but its SimCache and Analyses pointers are shared: give every
// executor of one fleet the same store and the same dse.AnalysisCache and
// a kernel analyzed by any attempt — including an attempt that later
// failed or was cancelled as a straggler — is a memo hit for every retry
// and steal that follows.
type EngineExecutor struct {
	Label  string
	Engine dse.Engine
}

// Name identifies the executor in logs and steal accounting.
//
//repro:nonnil executors are constructed by the caller before New; never nil
func (e *EngineExecutor) Name() string { return e.Label }

// Run implements Executor.
//
//repro:nonnil executors are constructed by the caller before New; never nil
func (e *EngineExecutor) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	sp, err := spec.Space()
	if err != nil {
		return err
	}
	_, err = e.Engine.ExploreSubsetStream(ctx, sp, points, shard.NewTaskWriter(w, points))
	return err
}

// ProcExecutor runs points in a `dse` subprocess (`dse -space spec.json
// -points ...`), the local multi-process fleet shape: a worker crash or
// kill -9 takes down only its own attempt, and the stdout stream that
// reached the driver before death salvages as usual. Each worker process
// computes the analyses and class schedules its points need: both are
// cheaper to compute than to fetch.
type ProcExecutor struct {
	Label string
	// Bin is the dse binary ("" = this process's own executable, which is
	// the dse binary when the driver runs inside `dse fleet`).
	Bin string
}

// Name identifies the executor in logs and steal accounting.
//
//repro:nonnil executors are constructed by the caller before New; never nil
func (p *ProcExecutor) Name() string { return p.Label }

// Run implements Executor.
//
//repro:nonnil executors are constructed by the caller before New; never nil
func (p *ProcExecutor) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	bin := p.Bin
	if bin == "" {
		var err error
		if bin, err = os.Executable(); err != nil {
			return err
		}
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp("", "dse-fleet-space-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(specJSON); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	args := []string{"-space", f.Name(), "-points", FormatPoints(points), "-quiet"}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = w
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 256 {
			msg = msg[len(msg)-256:]
		}
		if msg != "" {
			return fmt.Errorf("fleet: %s: %w: %s", p.Label, err, msg)
		}
		return fmt.Errorf("fleet: %s: %w", p.Label, err)
	}
	return nil
}

// HTTPExecutor runs points on a remote `dse serve` instance via the
// points= slice of /v1/explore, streaming the NDJSON response through —
// a dropped connection mid-stream leaves a salvageable prefix. A 503
// shed is retried within the attempt, honoring the server's Retry-After
// hint (capped by MaxShedWait); anything else is the attempt's failure.
type HTTPExecutor struct {
	Label string
	Base  string // service base URL, e.g. "http://host:8080"
	// Client issues the requests (nil = a default with no overall timeout
	// — the driver's straggler detection bounds a hung stream, and a
	// sweep's legitimate duration is unknowable here).
	Client *http.Client
	// ShedRetries bounds in-attempt retries of 503 sheds (0 = 3);
	// MaxShedWait caps the honored Retry-After hint (0 = 2s).
	ShedRetries int
	MaxShedWait time.Duration
}

// Name identifies the executor in logs and steal accounting.
//
//repro:nonnil executors are constructed by the caller before New; never nil
func (h *HTTPExecutor) Name() string { return h.Label }

// Run implements Executor.
//
//repro:nonnil executors are constructed by the caller before New; never nil
func (h *HTTPExecutor) Run(ctx context.Context, spec dse.SpaceSpec, points []int, w io.Writer) error {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	retries := h.ShedRetries
	if retries <= 0 {
		retries = 3
	}
	url := strings.TrimRight(h.Base, "/") + "/v1/explore?points=" + FormatPoints(points)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(specJSON))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", h.Label, err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			hint := shedWait(resp.Header.Get("Retry-After"), h.MaxShedWait)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			if attempt >= retries {
				return fmt.Errorf("fleet: %s: shed %d times, giving up this attempt", h.Label, attempt+1)
			}
			select {
			case <-time.After(hint):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			return fmt.Errorf("fleet: %s: %s: %s", h.Label, resp.Status, strings.TrimSpace(string(msg)))
		}
		_, err = io.Copy(w, resp.Body)
		resp.Body.Close()
		return err
	}
}

// shedWait turns a Retry-After header into the in-attempt wait: the
// delta-seconds hint when parsable, a conservative default otherwise,
// capped either way.
func shedWait(header string, cap time.Duration) time.Duration {
	if cap <= 0 {
		cap = 2 * time.Second
	}
	wait := 250 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		wait = time.Duration(secs) * time.Second
	}
	return min(wait, cap)
}

// FormatPoints renders a point list as the comma-separated form the
// -points flag and the points= query parameter take.
func FormatPoints(points []int) string {
	var b strings.Builder
	for i, g := range points {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(g))
	}
	return b.String()
}
