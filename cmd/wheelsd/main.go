// Command wheelsd is the cellwheels service: a long-lived daemon that
// runs campaigns, fleets, and fleetsync collections as jobs behind an
// HTTP/JSON API (internal/serve).
//
// Usage:
//
//	wheelsd [-addr 127.0.0.1:8080] [-data wheelsd-data]
//	        [-workers N] [-metrics manifest.json]
//
// The API:
//
//	POST /v1/jobs                          submit a job (campaign, fleet, or collect)
//	GET  /v1/jobs                          list jobs in submission order
//	GET  /v1/jobs/{id}                     one job's status and artifact list
//	GET  /v1/jobs/{id}/progress[?follow=1] live obs counters (NDJSON stream with follow)
//	GET  /v1/jobs/{id}/artifacts/{name}    download one artifact
//	     /fleetsync/v1/...                 the fleetsync protocol, while a collect job is live
//
// Jobs are content-addressed — the ID is the sha256 of the canonical
// spec — so re-submitting is idempotent, and every artifact is
// byte-identical to the equivalent drivetest/fleetrun invocation. The
// bound address is written to <data>/wheelsd-addr.txt after the
// listener is live, so scripts can pass -addr :0 and wait for the file.
//
// SIGINT/SIGTERM drains: no new submissions are accepted, every
// already-accepted job runs to completion and writes its artifacts, a
// live collect job finalizes with whatever runs have arrived, and only
// then does the daemon exit.
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
	"path/filepath"
	"syscall"
	"time"

	"github.com/nuwins/cellwheels/internal/atomicio"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/serve"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("wheelsd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port; the bound address is written to <data>/wheelsd-addr.txt)")
		data        = fs.String("data", "wheelsd-data", "state directory; each job's artifacts live under <data>/jobs/<id>/")
		workers     = fs.Int("workers", 0, "concurrent pooled jobs (0 = GOMAXPROCS); any value produces byte-identical artifacts")
		metricsPath = fs.String("metrics", "", "write the daemon's observability manifest (JSON) to this path on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The recorder is the only wall clock this command touches.
	rec := obs.New()
	s, err := serve.New(serve.Config{
		DataDir: *data,
		Workers: *workers,
		Obs:     rec,
	})
	if err != nil {
		return fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	// Publish the bound address only after the listener is live, so a
	// script that waits for this file can connect as soon as it appears.
	if err := atomicio.WriteFile(filepath.Join(*data, "wheelsd-addr.txt"), 0o644, func(w io.Writer) error {
		_, werr := fmt.Fprintln(w, ln.Addr().String())
		return werr
	}); err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Handler: s.Handler(),
		// A client that stalls mid-header would otherwise hold its
		// connection — and the SIGTERM drain below — open forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "wheelsd listening on %s (data %s)\n", ln.Addr(), *data)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "wheelsd: signal received; draining jobs")
	case err := <-serveErr:
		return fail(err)
	}
	stop() // a second signal kills immediately instead of re-entering the drain

	// Drain order matters: jobs first — while the HTTP server still
	// answers status polls and artifact downloads for them — then the
	// listener. Submissions are already refused the moment draining
	// starts.
	if err := s.Shutdown(context.Background()); err != nil {
		return fail(err)
	}
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(httpCtx); err != nil {
		_ = srv.Close()
	}

	if *metricsPath != "" {
		s.Snapshot() // folds queue gauges into the recorder
		if err := rec.WriteManifestFile(*metricsPath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "obs manifest written to %s\n", *metricsPath)
	}
	fmt.Fprintln(os.Stderr, "wheelsd: drained; exiting")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "wheelsd:", err)
	return 1
}
