package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/fleet/faultinject"
)

// runFaultProxy is the `dse faultproxy` entry point: a seeded
// fault-injecting HTTP pass-through (internal/fleet/faultinject) for
// chaos-testing fleets across real processes — stand it between the fleet
// driver and a `dse serve` upstream and dial in sheds, errors, latency and
// mid-stream cuts.
func runFaultProxy(args []string) error {
	fs := flag.NewFlagSet("dse faultproxy", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	target := fs.String("target", "", "upstream base URL to forward to (required)")
	seed := fs.Int64("seed", 1, "fault schedule seed (same seed, same fault sequence)")
	errorRate := fs.Float64("error-rate", 0, "probability a request fails upstream-less with 502")
	shedRate := fs.Float64("shed-rate", 0, "probability a request is shed with 503 + Retry-After")
	retryAfter := fs.Int("retry-after", 1, "Retry-After seconds on synthetic sheds")
	latencyRate := fs.Float64("latency-rate", 0, "probability a request is delayed by -latency")
	latency := fs.Duration("latency", 0, "injected delay for -latency-rate requests")
	cutRate := fs.Float64("cut-rate", 0, "probability a response body is cut mid-stream")
	cutAfter := fs.Int64("cut-after", 0, "bytes forwarded before a cut (0 = 64)")
	quiet := fs.Bool("quiet", false, "suppress stderr lifecycle lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse faultproxy -target url [-addr host:port] [-seed n] [-shed-rate p] [-error-rate p] [-latency-rate p -latency d] [-cut-rate p] [-cut-after bytes]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *target == "" {
		return errors.New("-target is required")
	}
	p := &faultinject.Proxy{
		Target: *target,
		T: &faultinject.Transport{
			S:         faultinject.NewSchedule(*seed),
			ErrorRate: *errorRate,
			ShedRate:  *shedRate, RetryAfterSecs: *retryAfter,
			LatencyRate: *latencyRate, Latency: *latency,
			CutRate: *cutRate, CutAfter: *cutAfter,
		},
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse faultproxy: %s -> %s (seed %d, shed %.2f, error %.2f, cut %.2f)\n",
			ln.Addr(), *target, *seed, *shedRate, *errorRate, *cutRate)
	}
	return serveUntilSignal(ln, p, nil)
}
