package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simcache"
)

// runServe is the `dse serve` entry point: the long-running estimation
// service (internal/serve) over one warm shared simcache, with graceful
// drain on SIGINT/SIGTERM.
func runServe(args []string) error {
	fs := flag.NewFlagSet("dse serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "per-request worker pool size (0 = GOMAXPROCS)")
	maxInflight := fs.Int("max-inflight", 2, "maximum concurrently running sweeps")
	maxQueue := fs.Int("max-queue", 16, "maximum sweeps waiting for a slot before 503")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline, queue wait included (0 = none)")
	quiet := fs.Bool("quiet", false, "suppress stderr request and lifecycle lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse serve [-addr host:port] [-workers n] [-max-inflight n] [-max-queue n] [-request-timeout d] [-quiet]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cache := simcache.New()
	metrics := obs.New()
	cache.SetObs(metrics)
	var logw io.Writer
	if !*quiet {
		logw = os.Stderr
	}
	srv, err := serve.New(cache, metrics, serve.Config{
		Workers: *workers, MaxInflight: *maxInflight, MaxQueue: *maxQueue,
		Timeout: *reqTimeout, Log: logw,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse serve: listening on http://%s\n", ln.Addr())
	}
	return serveUntilSignal(ln, srv.Handler(), func() {
		srv.SetDraining(true)
		if !*quiet {
			doc := srv.Doc()
			fmt.Fprintf(os.Stderr, "dse serve: draining (%d points served, %d failed; cache %s)\n",
				doc.Points, doc.Failed, doc.Cache.String())
		}
	})
}

// serveUntilSignal serves HTTP until SIGINT/SIGTERM, then drains: onDrain
// (readiness flip, log line) runs first, then in-flight requests get a
// bounded grace period to finish. A clean drain exits 0.
func serveUntilSignal(ln net.Listener, h http.Handler, onDrain func()) error {
	hs := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}
