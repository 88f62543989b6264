package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/serve"
)

// loopback is an HTTP server on 127.0.0.1 that serves one handler until
// stop.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (l *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// daemon is a serve.Server on loopback with a client for it.
type daemon struct {
	s      *serve.Server
	http   *loopback
	client *http.Client
	dir    string
}

// startDaemon starts a daemon whose worker pool and client connections
// are both capped at e.workers.
func startDaemon(e *env) (*daemon, error) {
	dir, err := os.MkdirTemp(e.dir, "serve-")
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{DataDir: dir, Workers: e.workers, Obs: obs.New()})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	l, err := listen(s.Handler())
	if err != nil {
		return nil, errors.Join(err, s.Shutdown(e.ctx), os.RemoveAll(dir))
	}
	return &daemon{
		s:      s,
		http:   l,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.workers}},
		dir:    dir,
	}, nil
}

// stop drains the daemon's jobs, then its listener, and removes its data.
func (d *daemon) stop(ctx context.Context) error {
	err := d.s.Shutdown(ctx)
	err = errors.Join(err, d.http.stop())
	d.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// setupServe starts a daemon and runs one warm-up session on it; the op is
// one client session, from as many closed-loop clients as the host has
// CPUs. Each session uses a new seed.
func setupServe(e *env) (runner, error) {
	d, err := startDaemon(e)
	if err != nil {
		return runner{}, err
	}
	check, err := d.session(e, jobSeed(e.seed, e.workers, 0), -1)
	if err == nil {
		err = check()
	}
	if err != nil {
		return runner{}, errors.Join(err, d.stop(e.ctx))
	}
	return runner{
		clients: e.workers,
		op: func(client, i int) (func() error, error) {
			return d.session(e, jobSeed(e.seed, client, i+1), -1)
		},
		close: func() error { return d.stop(e.ctx) },
	}, nil
}

// jobSeed gives every (client, session) pair of a run its own campaign
// seed, derived from the run's seed.
func jobSeed(seed int64, client, i int) int64 { return opSeed(seed, client<<16|i) }

// job is what one finished job left behind.
type job struct {
	status    serve.JobStatus
	artifacts map[string][]byte
}

// session submits a campaign job on a new seed and then the same config
// with CSV export, which the daemon's timeline cache serves. Each job is
// followed to its end, every artifact it lists is downloaded, and the
// spec is re-submitted, which must dedup to the same job. The check
// compares each report.txt with the report of its own dataset.json.
func (d *daemon) session(e *env, seed int64, parent int) (func() error, error) {
	cfg := campaignConfig(e, seed, e.sz.serveKm)
	var jobs []job
	for _, csv := range []bool{false, true} {
		j, err := d.job(e, serve.JobSpec{Kind: serve.KindCampaign, Config: &cfg, CSV: csv}, parent)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return func() error {
		for _, j := range jobs {
			if j.status.State != serve.StateDone {
				return fmt.Errorf("job %.12s ended %s: %s", j.status.ID, j.status.State, j.status.Error)
			}
			study, err := cellwheels.Load(bytes.NewReader(j.artifacts["dataset.json"]))
			if err != nil {
				return err
			}
			if comparable(string(j.artifacts["report.txt"])) != comparable(study.Report()) {
				return fmt.Errorf("job %.12s: report.txt differs from its dataset's report", j.status.ID)
			}
		}
		for _, name := range []string{"throughput.csv", "rtt.csv", "handovers.csv", "appruns.csv"} {
			if !slices.Contains(jobs[1].status.Artifacts, name) {
				return fmt.Errorf("CSV job does not list %s", name)
			}
		}
		if !bytes.Equal(jobs[0].artifacts["dataset.json"], jobs[1].artifacts["dataset.json"]) {
			return errors.New("the cached-timeline job's dataset differs from the first job's")
		}
		return nil
	}, nil
}

// job runs one spec through the API: submit, follow, download, re-submit.
func (d *daemon) job(e *env, spec serve.JobSpec, parent int) (job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return job{}, err
	}
	sp := e.tr.begin("serve.submit", parent)
	st, code, err := d.submit(e.ctx, body)
	e.tr.end(sp)
	if err != nil {
		return job{}, err
	}
	if code != http.StatusCreated {
		return job{}, fmt.Errorf("submit: status %d, want %d", code, http.StatusCreated)
	}
	if err := d.follow(e, st.ID, parent); err != nil {
		return job{}, err
	}
	if err := d.getJSON(e.ctx, "/v1/jobs/"+st.ID, &st); err != nil {
		return job{}, err
	}
	j := job{status: st, artifacts: map[string][]byte{}}
	for _, name := range st.Artifacts {
		sp := e.tr.begin("serve.artifact_get", parent)
		data, err := d.get(e.ctx, "/v1/jobs/"+st.ID+"/artifacts/"+name)
		e.tr.end(sp)
		if err != nil {
			return job{}, err
		}
		j.artifacts[name] = data
	}
	sp = e.tr.begin("serve.dedup", parent)
	again, code, err := d.submit(e.ctx, body)
	e.tr.end(sp)
	if err != nil {
		return job{}, err
	}
	if code != http.StatusOK || again.ID != st.ID {
		return job{}, fmt.Errorf("re-submit: status %d id %.12s, want %d id %.12s", code, again.ID, http.StatusOK, st.ID)
	}
	return j, nil
}

// follow reads the job's progress stream until the daemon closes it at
// the job's end. The queue-wait span ends at the first snapshot that is
// no longer queued.
func (d *daemon) follow(e *env, id string, parent int) error {
	req, err := http.NewRequestWithContext(e.ctx, http.MethodGet, d.http.url+"/v1/jobs/"+id+"/progress?follow=1", nil)
	if err != nil {
		return err
	}
	wait := e.tr.begin("serve.queue_wait", parent)
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only: nothing to act on
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("progress: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var last serve.Progress
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("progress: %w", err)
		}
		if wait >= 0 && last.State != serve.StateQueued {
			e.tr.end(wait)
			wait = -1
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("progress: %w", err)
	}
	if last.State != serve.StateDone && last.State != serve.StateFailed {
		return fmt.Errorf("progress stream ended in state %q", last.State)
	}
	return nil
}

func (d *daemon) submit(ctx context.Context, body []byte) (serve.JobStatus, int, error) {
	data, code, err := d.roundTrip(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return serve.JobStatus{}, 0, err
	}
	if code != http.StatusOK && code != http.StatusCreated {
		return serve.JobStatus{}, code, fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(data))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return serve.JobStatus{}, 0, fmt.Errorf("submit: %w", err)
	}
	return st, code, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	data, code, err := d.roundTrip(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, code)
	}
	return data, nil
}

func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	data, err := d.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// roundTrip sends one request and returns the whole response body and
// the status code.
func (d *daemon) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.http.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read-only: nothing to act on
	return data, resp.StatusCode, err
}
