package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/atomicio"
	"github.com/nuwins/cellwheels/internal/fleetsync"
	"github.com/nuwins/cellwheels/internal/obs"
)

// followInterval paces the streaming progress endpoint.
const followInterval = 500 * time.Millisecond

// Config parameterizes a daemon.
type Config struct {
	// DataDir is the daemon's state root; each job owns
	// <DataDir>/jobs/<id>/ and artifacts are served from there.
	DataDir string
	// Workers caps how many queued jobs execute concurrently
	// (0 = GOMAXPROCS). Collect jobs run outside this pool — they are
	// servers, not computations.
	Workers int
	// Obs receives daemon-level counters (submissions, dedups, job
	// outcomes). Per-job metrics go to each job's own recorder. May be
	// nil.
	Obs *obs.Recorder
	// TestHookRun, when non-nil, runs at the start of every pooled job
	// on its worker goroutine — the test-only seam for injecting
	// failures and panics through the real execution path. Production
	// callers leave it nil.
	TestHookRun func(*Job)
}

// Server is the daemon: a FIFO job queue drained by a bounded worker
// pool, at most one live fleetsync collector,
// and the HTTP API over all of it. Jobs are in-memory state; artifacts
// are files. A Server survives any job outcome — panics included — and
// drains cleanly on Shutdown.
type Server struct {
	cfg     Config
	jobsDir string
	rec     *obs.Recorder

	mu       sync.Mutex
	cond     *sync.Cond // signals queue growth and drain start
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    []*Job   // FIFO of queued pooled jobs
	draining bool

	// The mounted collector, when a collect job is live. Mounting is
	// exclusive: the /fleetsync/v1 path can only mean one reduction.
	collect        *Job
	collectCol     *fleetsync.Collector
	collectHandler http.Handler

	stop      chan struct{} // closed on Shutdown; interrupts the collect wait
	workerWG  sync.WaitGroup
	collectWG sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: DataDir is required")
	}
	jobsDir := filepath.Join(cfg.DataDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		jobsDir: jobsDir,
		rec:     cfg.Obs,
		jobs:    map[string]*Job{},
		stop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Shutdown drains the daemon: no new submissions are accepted, every
// already-accepted job still runs to completion (the whole queue, not
// just in-flight work — an accepted job's artifacts are a promise), and
// a live collect job finalizes with whatever runs have arrived. Returns
// ctx.Err if the drain outlives the context.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.stop)
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		s.collectWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown interrupted with jobs still running")
	}
}

// Handler returns the daemon's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc(fleetsync.BasePath+"/", s.handleFleetsync)
	return mux
}

// handleSubmit accepts a job. Submissions are content-addressed: an ID
// collision is the same job, answered with its current status instead
// of a second execution — re-submitting is always safe.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, id, err := ParseJobSpec(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "daemon is draining", http.StatusServiceUnavailable)
		return
	}
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.rec.Counter("serve/jobs_deduped").Add(1)
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	j := newJob(id, spec, filepath.Join(s.jobsDir, id))
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if spec.Kind == KindCollect {
		if code, err := s.startCollectLocked(j); err != nil {
			s.mu.Unlock()
			http.Error(w, err.Error(), code)
			return
		}
	} else {
		s.queue = append(s.queue, j)
		s.cond.Signal()
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.rec.Counter("serve/jobs_submitted").Add(1)
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleProgress reports a job's live obs snapshot. With ?follow=1 it
// streams NDJSON — one snapshot per tick — until the job finishes or
// the client goes away, ending with the terminal snapshot.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if r.URL.Query().Get("follow") == "" {
		writeJSON(w, http.StatusOK, j.progress())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	tick := time.NewTicker(followInterval)
	defer tick.Stop()
	for {
		if err := writeNDJSON(w, flusher, j.progress()); err != nil {
			return
		}
		select {
		case <-j.Done():
			_ = writeNDJSON(w, flusher, j.progress())
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// handleArtifact serves one published artifact file. The name must be
// on the job's published list — the daemon never serves an unlisted
// path, which also closes every traversal spelling.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	name := r.PathValue("name")
	if !j.hasArtifact(name) {
		http.Error(w, "no such artifact", http.StatusNotFound)
		return
	}
	http.ServeFile(w, r, filepath.Join(j.dir, name))
}

// handleFleetsync routes the fleetsync protocol to the live collect
// job's collector. Without one the push endpoints answer 503 — the
// status a fleetrun worker treats as "collector not ready, retry".
func (s *Server) handleFleetsync(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.collectHandler
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "no active collect job", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// worker drains the FIFO queue. On drain it keeps popping until the
// queue is empty, then exits — accepted jobs always run.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one pooled job with panic containment: a panicking
// campaign fails its own job and nothing else — the worker survives to
// take the next one.
//
//lint:cold — runs once per job; the hot loops are inside the campaign it dispatches, already rooted at the lane engine
func (s *Server) runJob(j *Job) {
	j.setRunning()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		if s.cfg.TestHookRun != nil {
			s.cfg.TestHookRun(j)
		}
		switch j.Spec.Kind {
		case KindCampaign:
			return s.runCampaign(j)
		case KindFleet:
			return s.runFleet(j)
		default:
			return fmt.Errorf("unknown job kind %q", j.Spec.Kind)
		}
	}()
	j.finish(err)
	if err != nil {
		s.rec.Counter("serve/jobs_failed").Add(1)
	} else {
		s.rec.Counter("serve/jobs_done").Add(1)
	}
}

// runCampaign executes a campaign job and writes exactly the drivetest
// artifact set — dataset.json (the bytes of Study.WriteJSON),
// report.txt, optional CSV tables, and the job's obs manifest last so it
// carries every phase.
//
//lint:cold — once per job; per-tick work lives in the campaign, not the daemon
func (s *Server) runCampaign(j *Job) error {
	cfg := *j.Spec.Config
	cfg.Obs = j.rec
	study, err := cellwheels.Run(cfg)
	if err != nil {
		return err
	}
	if err := study.WriteJSONFile(filepath.Join(j.dir, "dataset.json")); err != nil {
		return err
	}
	j.addArtifact("dataset.json")
	if err := writeText(filepath.Join(j.dir, "report.txt"), study.Report()); err != nil {
		return err
	}
	j.addArtifact("report.txt")
	if j.Spec.CSV {
		if err := study.WriteCSV(j.dir); err != nil {
			return err
		}
		for _, name := range []string{"throughput.csv", "rtt.csv", "handovers.csv", "appruns.csv"} {
			j.addArtifact(name)
		}
	}
	return s.writeObsManifest(j)
}

// runFleet executes a fleet job in-process, producing fleetrun's
// artifact pair. Failed runs fail the job but keep its artifacts — the
// manifest is exactly where the failures are recorded.
//
//lint:cold — once per job; per-tick work lives in the fleet's campaigns, not the daemon
func (s *Server) runFleet(j *Job) error {
	cfg := *j.Spec.Scenario
	cfg.Obs = j.rec
	res, err := cellwheels.RunFleet(cfg)
	if err != nil {
		return err
	}
	if err := s.writeFleetArtifacts(j, res.Report(), res.WriteManifest); err != nil {
		return err
	}
	if res.Failed() > 0 {
		return fmt.Errorf("%d of %d runs failed (see fleet-manifest.json)", res.Failed(), res.Runs())
	}
	return nil
}

// startCollectLocked mounts a collect job: builds its reducer, store,
// and collector, publishes the handler at /fleetsync/v1, and parks a
// goroutine on the completion wait. Callers hold s.mu. Exclusive: a
// second collect job while one is live is a conflict.
func (s *Server) startCollectLocked(j *Job) (int, error) {
	if s.collect != nil {
		return http.StatusConflict, fmt.Errorf("a collect job is already active (%s)", s.collect.ID)
	}
	red, err := cellwheels.FleetReducer(*j.Spec.Scenario)
	if err != nil {
		return http.StatusBadRequest, err
	}
	store, err := fleetsync.OpenStore(filepath.Join(j.dir, "sync"))
	if err != nil {
		return http.StatusInternalServerError, err
	}
	col, err := fleetsync.NewCollector(j.Spec.Fingerprint, red, store, j.rec)
	if err != nil {
		return http.StatusBadRequest, err
	}
	s.collect = j
	s.collectCol = col
	s.collectHandler = col.Handler()
	j.setRunning()
	s.collectWG.Add(1)
	go s.collectLoop(j, col)
	return 0, nil
}

// collectLoop waits for the collector to complete — or for Shutdown —
// then unmounts it and finalizes the job with the reduction as it
// stands. An interrupted collection still writes its partial fold (the
// report over received runs plus the manifest), so it never loses what
// arrived, and fails the job with the receive count.
func (s *Server) collectLoop(j *Job, col *fleetsync.Collector) {
	defer s.collectWG.Done()
	select {
	case <-col.Done():
	case <-s.stop:
	}
	s.mu.Lock()
	s.collect = nil
	s.collectCol = nil
	s.collectHandler = nil
	s.mu.Unlock()

	res := col.Result()
	err := s.writeFleetArtifacts(j, res.Report(), res.Manifest.WriteJSON)
	if err == nil {
		man := col.Manifest()
		switch {
		case !col.Complete():
			err = fmt.Errorf("interrupted: %d of %d runs collected", man.Received, man.Total)
		case res.Manifest.Failed > 0:
			err = fmt.Errorf("%d of %d runs failed (see fleet-manifest.json)", res.Manifest.Failed, len(res.Manifest.Runs))
		}
	}
	j.finish(err)
	if err != nil {
		s.rec.Counter("serve/jobs_failed").Add(1)
	} else {
		s.rec.Counter("serve/jobs_done").Add(1)
	}
}

// writeFleetArtifacts installs the fleet artifact set shared by fleet
// and collect jobs: report, fleet manifest, obs manifest.
func (s *Server) writeFleetArtifacts(j *Job, report string, writeManifest func(io.Writer) error) error {
	if err := writeText(filepath.Join(j.dir, "fleet-report.txt"), report); err != nil {
		return err
	}
	j.addArtifact("fleet-report.txt")
	if err := atomicio.WriteFile(filepath.Join(j.dir, "fleet-manifest.json"), 0o644, writeManifest); err != nil {
		return err
	}
	j.addArtifact("fleet-manifest.json")
	return s.writeObsManifest(j)
}

// writeObsManifest archives the job's observability manifest as its
// last artifact. It carries wall-clock fields, so it is the one
// artifact not expected to be byte-identical across runs.
func (s *Server) writeObsManifest(j *Job) error {
	j.rec.SetLabel("job_id", j.ID)
	j.rec.SetLabel("job_kind", j.Spec.Kind)
	if err := j.rec.WriteManifestFile(filepath.Join(j.dir, "manifest.json")); err != nil {
		return err
	}
	j.addArtifact("manifest.json")
	return nil
}

// Snapshot reports the daemon's own obs registry plus queue gauges —
// what wheelsd -metrics serializes on exit.
func (s *Server) Snapshot() obs.Snapshot {
	s.mu.Lock()
	queued := len(s.queue)
	total := len(s.jobs)
	s.mu.Unlock()
	s.rec.Gauge("serve/jobs_queued").Set(float64(queued))
	s.rec.Gauge("serve/jobs_total").Set(float64(total))
	return s.rec.Snapshot()
}

func writeText(path, text string) error {
	return atomicio.WriteFile(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, text)
		return err
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		return // client went away
	}
}

func writeNDJSON(w io.Writer, flusher http.Flusher, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return err
	}
	if flusher != nil {
		flusher.Flush()
	}
	return nil
}
