package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"repro/internal/obs"
	"repro/internal/simcache"
)

// runCached is the `dse cached` entry point: just the content-addressed
// blob store over a backing directory, for fleets whose sweep processes
// (-simcache-url) or serve instances share simulation work without a
// shared filesystem.
func runCached(args []string) error {
	fs := flag.NewFlagSet("dse cached", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8081", "listen address")
	cacheDir := fs.String("simcache-dir", "", "backing directory of the blob store (default: a fresh temp directory)")
	quiet := fs.Bool("quiet", false, "suppress stderr lifecycle lines")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dse cached [-addr host:port] [-simcache-dir d] [-quiet]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	dir := *cacheDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "dse-simcache-"); err != nil {
			return err
		}
	}
	cache, err := simcache.NewDir(dir)
	if err != nil {
		return err
	}
	h, err := simcache.NewBlobHandler(cache, obs.New())
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/blob/", h)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dse cached: serving blobs on http://%s (dir %s)\n", ln.Addr(), dir)
	}
	return serveUntilSignal(ln, mux, nil)
}
