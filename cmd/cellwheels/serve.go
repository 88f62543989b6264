package main

import (
	"context"
	"flag"
	"fmt"
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

// serveCmd is `cellwheels serve`: the job daemon, until SIGINT/SIGTERM
// drains it.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("cellwheels serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port; the bound address is written to <data>/wheelsd-addr.txt)")
		data        = fs.String("data", "wheelsd-data", "state directory; each job's artifacts live under <data>/jobs/<id>/")
		workers     = fs.Int("workers", 0, "concurrent pooled jobs (0 = GOMAXPROCS); any value produces byte-identical artifacts")
		metricsPath = fs.String("metrics", "", "write the daemon's observability manifest (JSON) to this path on exit")
	)
	if fs.Parse(args) != nil {
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
	if err := atomicio.WriteFileBytes(filepath.Join(*data, "wheelsd-addr.txt"), 0o644, []byte(ln.Addr().String()+"\n")); err != nil {
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
	fmt.Fprintf(os.Stderr, "cellwheels serve: listening on %s (data %s)\n", ln.Addr(), *data)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "cellwheels serve: signal received; draining jobs")
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

	s.Snapshot() // folds queue gauges into the recorder
	if err := writeMetrics(rec, *metricsPath); err != nil {
		return fail(err)
	}
	fmt.Fprintln(os.Stderr, "cellwheels serve: drained; exiting")
	return 0
}
