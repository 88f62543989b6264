package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/fleetsync"
	"github.com/nuwins/cellwheels/internal/obs"
)

// quickConfig is a campaign small enough to run many times in tests but
// still exercising the full drive pipeline.
func quickConfig(seed int64) cellwheels.Config {
	return cellwheels.Config{Seed: seed, LimitKm: 6, SkipApps: true, SkipStatic: true, SkipPassive: true}
}

func quickSpec(seed int64) string {
	return fmt.Sprintf(`{"kind":"campaign","config":{"seed":%d,"limit_km":6,"skip_apps":true,"skip_static":true,"skip_passive":true}}`, seed)
}

// startServer builds a daemon on a temp DataDir plus an httptest server
// over its handler, both torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

// submit POSTs a job spec and decodes the response status.
func submit(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("submit read: %v", err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("submit decode %q: %v", raw, err)
		}
	} else {
		st.Error = strings.TrimSpace(string(raw))
	}
	return st, resp.StatusCode
}

// waitJob polls the job endpoint until the job is terminal.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll decode: %v", err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetch downloads one artifact.
func fetch(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatalf("fetch %s: %v", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d", name, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("fetch %s: %v", name, err)
	}
	return data
}

// TestCampaignJobsByteIdenticalConcurrent is the service-mode
// acceptance pin: concurrent submissions — including duplicate
// re-submits racing the originals — produce artifacts byte-identical to
// direct library runs, under -race.
func TestCampaignJobsByteIdenticalConcurrent(t *testing.T) {
	seeds := []int64{21, 22}
	wantData := make(map[int64][]byte)
	wantReport := make(map[int64]string)
	for _, seed := range seeds {
		study, err := cellwheels.Run(quickConfig(seed))
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		var buf bytes.Buffer
		if err := study.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		wantData[seed] = buf.Bytes()
		wantReport[seed] = study.Report()
	}

	_, ts := startServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	ids := make(map[int64]string)
	var mu sync.Mutex
	for _, seed := range seeds {
		for dup := 0; dup < 2; dup++ { // each spec submitted twice, racing
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				st, code := submit(t, ts, quickSpec(seed))
				if code != http.StatusCreated && code != http.StatusOK {
					t.Errorf("submit seed %d: status %d (%s)", seed, code, st.Error)
					return
				}
				mu.Lock()
				if prev, ok := ids[seed]; ok && prev != st.ID {
					t.Errorf("seed %d: duplicate submit got a different job ID", seed)
				}
				ids[seed] = st.ID
				mu.Unlock()
			}(seed)
		}
	}
	wg.Wait()

	for _, seed := range seeds {
		st := waitJob(t, ts, ids[seed])
		if st.State != StateDone {
			t.Fatalf("seed %d: job %s: %s", seed, st.State, st.Error)
		}
		if got := fetch(t, ts, st.ID, "dataset.json"); !bytes.Equal(got, wantData[seed]) {
			t.Errorf("seed %d: daemon dataset differs from direct run", seed)
		}
		if got := fetch(t, ts, st.ID, "report.txt"); string(got) != wantReport[seed] {
			t.Errorf("seed %d: daemon report differs from direct run", seed)
		}
	}
}

// TestIdempotentResubmit: a terminal job re-submitted byte-for-byte (or
// reformatted — IDs hash the parsed spec) is answered from memory, not
// re-executed.
func TestIdempotentResubmit(t *testing.T) {
	var runs atomic.Int64
	_, ts := startServer(t, Config{Workers: 1, TestHookRun: func(*Job) { runs.Add(1) }})

	st1, code := submit(t, ts, quickSpec(31))
	if code != http.StatusCreated {
		t.Fatalf("first submit: status %d", code)
	}
	if done := waitJob(t, ts, st1.ID); done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	first := fetch(t, ts, st1.ID, "dataset.json")

	// Same spec, different JSON spelling: reordered keys, extra space.
	reformatted := `{ "config":{"skip_static":true,"skip_passive":true,"seed":31,"limit_km":6,"skip_apps":true}, "kind":"campaign" }`
	st2, code := submit(t, ts, reformatted)
	if code != http.StatusOK {
		t.Fatalf("resubmit: want 200 (dedup), got %d", code)
	}
	if st2.ID != st1.ID {
		t.Fatalf("resubmit changed the job ID: %s vs %s", st2.ID, st1.ID)
	}
	if st2.State != StateDone {
		t.Fatalf("resubmit should answer with the finished job, got %s", st2.State)
	}
	if runs.Load() != 1 {
		t.Fatalf("resubmit re-executed the job: %d runs", runs.Load())
	}
	if again := fetch(t, ts, st2.ID, "dataset.json"); !bytes.Equal(again, first) {
		t.Error("artifact changed across resubmit")
	}
}

func fleetScenario() cellwheels.FleetConfig {
	return cellwheels.FleetConfig{
		MasterSeed: 9,
		Replicates: 1,
		Base:       quickConfig(0),
		Sweep: []cellwheels.SweepAxis{{
			Field:  "disable_edge",
			Values: []json.RawMessage{json.RawMessage("false"), json.RawMessage("true")},
		}},
	}
}

const fleetScenarioJSON = `{"master_seed":9,"replicates":1,"base":{"seed":0,"limit_km":6,"skip_apps":true,"skip_static":true,"skip_passive":true},"sweep":[{"field":"disable_edge","values":[false,true]}]}`

// TestFleetJobByteIdentical: a fleet job's report and manifest match an
// in-process RunFleet over the same scenario.
func TestFleetJobByteIdentical(t *testing.T) {
	res, err := cellwheels.RunFleet(fleetScenario())
	if err != nil {
		t.Fatalf("direct fleet: %v", err)
	}
	wantReport := res.Report()
	var wantManifest bytes.Buffer
	if err := res.WriteManifest(&wantManifest); err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Config{Workers: 2})
	st, code := submit(t, ts, `{"kind":"fleet","scenario":`+fleetScenarioJSON+`}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d (%s)", code, st.Error)
	}
	done := waitJob(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("fleet job failed: %s", done.Error)
	}
	if got := fetch(t, ts, st.ID, "fleet-report.txt"); string(got) != wantReport {
		t.Error("daemon fleet report differs from RunFleet")
	}
	if got := fetch(t, ts, st.ID, "fleet-manifest.json"); !bytes.Equal(got, wantManifest.Bytes()) {
		t.Error("daemon fleet manifest differs from RunFleet")
	}
}

// TestCollectJob: a collect job hosts the fleetsync protocol; a worker
// pushing through the daemon's mount yields the single-process fleet
// outputs, byte-identical.
func TestCollectJob(t *testing.T) {
	res, err := cellwheels.RunFleet(fleetScenario())
	if err != nil {
		t.Fatalf("direct fleet: %v", err)
	}
	wantReport := res.Report()

	_, ts := startServer(t, Config{Workers: 1})
	const fp = "test-scenario-fingerprint"
	st, code := submit(t, ts, `{"kind":"collect","fingerprint":"`+fp+`","scenario":`+fleetScenarioJSON+`}`)
	if code != http.StatusCreated {
		t.Fatalf("submit collect: status %d (%s)", code, st.Error)
	}
	if st.State != StateRunning {
		t.Fatalf("collect job should mount immediately, got %s", st.State)
	}

	// A second collect while one is mounted is a conflict.
	if _, code := submit(t, ts, `{"kind":"collect","fingerprint":"other","scenario":`+fleetScenarioJSON+`}`); code != http.StatusConflict {
		t.Fatalf("second collect: want 409, got %d", code)
	}

	p, err := fleetsync.NewPusher(fleetsync.PusherConfig{BaseURL: ts.URL, Scenario: fp, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Status(); err != nil {
		t.Fatalf("status through daemon mount: %v", err)
	}
	worker := fleetScenario()
	worker.OnRun = p.PushRun
	if _, err := cellwheels.RunFleet(worker); err != nil {
		t.Fatalf("worker fleet: %v", err)
	}

	done := waitJob(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("collect job failed: %s", done.Error)
	}
	if got := fetch(t, ts, st.ID, "fleet-report.txt"); string(got) != wantReport {
		t.Error("collected report differs from single-process fleet")
	}
	// The mount is released: pushes now answer 503.
	resp, err := http.Get(ts.URL + fleetsync.BasePath + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unmounted fleetsync: want 503, got %d", resp.StatusCode)
	}
}

// TestCollectInterrupted: shutting down mid-collection finalizes the
// partial fold — artifacts exist, the job fails with the receive count.
func TestCollectInterrupted(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const fp = "interrupt-fingerprint"
	st, code := submit(t, ts, `{"kind":"collect","fingerprint":"`+fp+`","scenario":`+fleetScenarioJSON+`}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}

	// Push only cell 0 of 2, then shut down.
	p, err := fleetsync.NewPusher(fleetsync.PusherConfig{BaseURL: ts.URL, Scenario: fp, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	worker := fleetScenario()
	worker.OnRun = p.PushRun
	worker.CellFilter = func(i int, _ string) bool { return i == 0 }
	if _, err := cellwheels.RunFleet(worker); err != nil {
		t.Fatalf("worker fleet: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	done := waitJob(t, ts, st.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "interrupted: 1 of 2") {
		t.Fatalf("want interrupted failure, got %s (%s)", done.State, done.Error)
	}
	if got := fetch(t, ts, st.ID, "fleet-report.txt"); len(got) == 0 {
		t.Error("partial fold produced no report")
	}
}

// TestPanicContainmentAndFIFO: with one worker, queued jobs run in
// submission order; a panicking job fails alone and the worker survives
// to run the rest.
func TestPanicContainmentAndFIFO(t *testing.T) {
	var mu sync.Mutex
	var order []int64
	release := make(chan struct{})
	hook := func(j *Job) {
		mu.Lock()
		order = append(order, j.Spec.Config.Seed)
		mu.Unlock()
		<-release
		if j.Spec.Config.Seed == 52 {
			panic("injected job panic")
		}
	}
	_, ts := startServer(t, Config{Workers: 1, TestHookRun: hook})

	var ids []string
	for _, seed := range []int64{51, 52, 53} {
		st, code := submit(t, ts, quickSpec(seed))
		if code != http.StatusCreated {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		ids = append(ids, st.ID)
	}
	close(release)

	states := make([]JobStatus, len(ids))
	for i, id := range ids {
		states[i] = waitJob(t, ts, id)
	}
	if states[0].State != StateDone || states[2].State != StateDone {
		t.Fatalf("sibling jobs should survive a panic: %+v %+v", states[0], states[2])
	}
	if states[1].State != StateFailed || !strings.Contains(states[1].Error, "job panicked") {
		t.Fatalf("panicking job should fail with containment, got %+v", states[1])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 51 || order[1] != 52 || order[2] != 53 {
		t.Fatalf("jobs ran out of FIFO order: %v", order)
	}
}

// TestShutdownDrainsQueue: Shutdown refuses new submissions but runs
// every accepted job to completion, artifacts included.
func TestShutdownDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	hook := func(j *Job) {
		if j.Spec.Config.Seed == 61 {
			once.Do(func() { close(started) })
			<-block
		}
	}
	s, err := New(Config{DataDir: dir, Workers: 1, TestHookRun: hook})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st1, _ := submit(t, ts, quickSpec(61))
	st2, _ := submit(t, ts, quickSpec(62))
	<-started // job 1 is on the worker; job 2 is queued

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining flips synchronously at the start of Shutdown; poll until
	// a fresh submission is refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code := submit(t, ts, quickSpec(63))
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never refused during drain")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(block)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, st := range []JobStatus{waitJob(t, ts, st1.ID), waitJob(t, ts, st2.ID)} {
		if st.State != StateDone {
			t.Fatalf("accepted job not drained: %+v", st)
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs", st.ID, "dataset.json")); err != nil {
			t.Errorf("drained job %s left no dataset on disk: %v", st.ID, err)
		}
	}
}

// TestProgressEndpoint: the one-shot snapshot carries the job's live
// obs registry, and follow mode streams NDJSON ending in the terminal
// state.
func TestProgressEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	st, _ := submit(t, ts, quickSpec(71))

	// Follow the stream to completion.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/progress?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("follow content type: %s", ct)
	}
	var last Progress
	var lines int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("follow stream produced no lines")
	}
	if last.State != StateDone {
		t.Fatalf("stream should end at the terminal state, got %s (%s)", last.State, last.Error)
	}

	// One-shot snapshot after completion: counters from the run.
	var p Progress
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp2.Body).Decode(&p)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateDone {
		t.Fatalf("snapshot state: %s", p.State)
	}
	if len(p.Obs.Counters) == 0 {
		t.Error("finished campaign reported no obs counters")
	}
}

// TestBadRequests: malformed specs fail at submission, unknown jobs and
// unlisted artifact names are 404s — including traversal spellings.
func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown kind", `{"kind":"sabotage"}`},
		{"no kind", `{}`},
		{"unknown key", `{"kind":"campaign","config":{"seed":1},"sudo":true}`},
		{"campaign without config", `{"kind":"campaign"}`},
		{"fleet without scenario", `{"kind":"fleet"}`},
		{"bad load model", `{"kind":"campaign","config":{"seed":1,"load_model":"psychic"}}`},
		{"bad sweep field", `{"kind":"fleet","scenario":{"master_seed":1,"base":{"seed":0},"sweep":[{"field":"nope","values":[1]}]}}`},
		{"archive_dir rejected", `{"kind":"fleet","scenario":{"master_seed":1,"archive_dir":"/tmp/x","base":{"seed":0}}}`},
	} {
		if _, code := submit(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", tc.name, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: want 404, got %d", resp.StatusCode)
	}

	st, _ := submit(t, ts, quickSpec(81))
	if done := waitJob(t, ts, st.ID); done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	for _, name := range []string{"secrets.txt", "..%2F..%2Fetc%2Fpasswd", "%2e%2e%2fdataset.json"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("artifact %q: want 404, got %d", name, resp.StatusCode)
		}
	}
}
