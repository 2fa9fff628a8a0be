package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/shard"
)

// runMerge is the `dse merge` entry point: shard files (internal/shard)
// reassembled into one report, byte-identical to the single-process run.
func runMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dse merge", flag.ExitOnError)
	format := fs.String("format", "table", "output format: table, csv or json")
	strict := fs.Bool("strict", false, "exit non-zero when any design point fails")
	quiet := fs.Bool("quiet", false, "suppress the stderr stats summary")
	metricsPath := fs.String("metrics", "", "write the merged (stage-wise summed) metrics snapshot as JSON to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: dse merge [-format table|csv|json] [-strict] [-quiet] [-metrics m.json] shard.jsonl ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no shard files given (usage: dse merge [-format f] shard.jsonl ...)")
	}
	start := time.Now()
	rs, err := shard.MergeFiles(fs.Args()...)
	if err != nil {
		return err
	}
	rep, err := dse.RendererFor(*format)
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		doc := serve.MetricsDoc{
			Format: serve.MetricsFormat, Version: serve.MetricsVersion,
			Points: len(rs.Results), Failed: len(rs.Failed()), UniqueSims: rs.UniqueSims,
			WallNs: int64(time.Since(start)), Cache: rs.Cache, Obs: rs.Obs,
		}
		if err := serve.WriteMetricsFile(*metricsPath, doc); err != nil {
			return err
		}
	}
	if !*quiet {
		summary := ""
		if !rs.Obs.Zero() {
			summary = fmt.Sprintf("\ndse merge: stages: %s", rs.Obs.Summary(5))
		}
		fmt.Fprintf(stderr, "dse merge: %d shards, %d points (%d failed, %d unique simulations summed%s)%s\n",
			fs.NArg(), len(rs.Results), len(rs.Failed()), rs.UniqueSims, cacheNote(rs.Cache), summary)
	}
	// Reporters write per point; buffer stdout, as the sweep does.
	out := bufio.NewWriter(stdout)
	if err := rep.Report(out, rs); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if *strict {
		return rs.FirstErr()
	}
	return nil
}
