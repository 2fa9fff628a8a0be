package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
)

// runFleet is the `dse fleet` entry point: the fault-tolerant
// multi-executor sweep driver (internal/fleet) over local dse
// subprocesses and/or remote `dse serve` endpoints, with checkpointed
// point-granular recovery. Rerunning with the same -dir resumes from
// whatever the previous run salvaged.
func runFleet(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dse fleet", flag.ExitOnError)
	spaceArgs := addSpaceFlags(fs, "load the space from this spec JSON file instead of the axis flags")
	format := fs.String("format", "table", "output format: table, csv or json")
	dir := fs.String("dir", "", "checkpoint directory; rerun with the same -dir to resume (default: a fresh temp directory, removed on exit)")
	local := fs.Int("local", 0, "local dse subprocess executors (default: 2 when no -remote is given)")
	remotes := fs.String("remote", "", "comma-separated base URLs of `dse serve` endpoints to enlist")
	bin := fs.String("bin", "", "dse binary for local executors (default: this executable)")
	tasks := fs.Int("tasks", 0, "initial task partition count (0 = one per executor)")
	maxAttempts := fs.Int("max-attempts", 0, "consecutive zero-progress attempts before a task fails the run (0 = 3)")
	budget := fs.Int("attempt-budget", 0, "total dispatches across the run (0 = tasks + 8 per executor)")
	backoff := fs.Duration("backoff", 0, "first-retry backoff, doubling per consecutive failure (0 = 100ms)")
	stallFloor := fs.Duration("stall-floor", 0, "minimum no-progress time before a straggler kill (0 = 10s)")
	stallFactor := fs.Float64("stall-factor", 0, "straggler threshold as a multiple of the fleet-wide p99 row gap (0 = 16)")
	maxExecFails := fs.Int("max-exec-fails", 0, "consecutive failures before an executor retires (0 = 3)")
	reportPath := fs.String("report", "", "write the recovery report (attempts, salvages, steals, stragglers) as JSON to this file")
	strict := fs.Bool("strict", false, "exit non-zero when any design point fails")
	quiet := fs.Bool("quiet", false, "suppress stderr scheduling and summary lines")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: dse fleet [-local n] [-remote url,url] [-dir d] [axis flags | -space spec.json] [-format f] [tuning flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	sp, file, err := spaceArgs.resolve()
	if err != nil {
		return err
	}
	spec := dse.Spec(sp)
	if file != nil {
		spec = *file
	}

	nLocal := *local
	if nLocal == 0 && *remotes == "" {
		nLocal = 2
	}
	var execs []fleet.Executor
	for i := 0; i < nLocal; i++ {
		execs = append(execs, &fleet.ProcExecutor{Label: fmt.Sprintf("local%d", i), Bin: *bin})
	}
	ri := 0
	for _, u := range strings.Split(*remotes, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		execs = append(execs, &fleet.HTTPExecutor{Label: fmt.Sprintf("remote%d", ri), Base: u})
		ri++
	}
	if len(execs) == 0 {
		return errors.New("no executors: -local 0 and no -remote endpoints")
	}

	var logw io.Writer
	if !*quiet {
		logw = stderr
	}
	d, err := fleet.New(fleet.Config{
		Dir: *dir, Tasks: *tasks,
		MaxAttempts: *maxAttempts, AttemptBudget: *budget, Backoff: *backoff,
		StallFloor: *stallFloor, StallFactor: *stallFactor,
		MaxExecFails: *maxExecFails, Log: logw,
	}, execs...)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	rs, frep, err := d.Run(ctx, spec)
	if *reportPath != "" {
		// The report is the run's recovery record; write it on failure too —
		// the CI chaos smoke and a resuming operator both want it.
		data, merr := json.MarshalIndent(frep, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*reportPath, append(data, '\n'), 0o644)
		}
		if merr != nil && err == nil {
			err = merr
		}
	}
	if err != nil {
		return err
	}
	rep, err := dse.RendererFor(*format)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	if err := rep.Report(out, rs); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stderr, "dse fleet: %d points on %d executors in %v (%d tasks, %d attempts; resumed %d rows, salvaged %d attempts, stole %d tasks, killed %d stragglers, retired %d executors)\n",
			len(rs.Results), len(execs), time.Since(start).Round(time.Millisecond),
			frep.Tasks, frep.Attempts, frep.ResumedRows, frep.Salvaged, frep.Stolen, frep.Stragglers, frep.Retired)
	}
	if *strict {
		return rs.FirstErr()
	}
	return nil
}
