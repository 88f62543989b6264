package fleetsync

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// The loopback fixture: a 2-cell × 3-replicate scenario with a synthetic
// runner whose metrics exercise the encoding's hard cases (non-terminating
// binary fractions, NaN) plus one deterministic failure — the worker/
// collector split must reproduce all of it byte-for-byte.

const testScenarioFP = "0000000000000000000000000000000000000000000000000000000000000001"

func testAxes() []fleet.Axis {
	return []fleet.Axis{{
		Field:  "mode",
		Values: []json.RawMessage{json.RawMessage(`"a"`), json.RawMessage(`"b"`)},
	}}
}

func testRunner(spec fleet.RunSpec) (fleet.RunResult, error) {
	if spec.Cell.Key == `mode="b"` && spec.Replicate == 2 {
		return fleet.RunResult{}, fmt.Errorf("injected run failure")
	}
	return fleet.RunResult{Metrics: fleet.Metrics{
		"thr":     float64(spec.Seed%100000) / 3.0,
		"rtt":     1.0 / float64(spec.Index+7),
		"skipped": math.NaN(),
	}}, nil
}

func testConfig() fleet.Config {
	return fleet.Config{
		MasterSeed:  77,
		Replicates:  3,
		Sweep:       testAxes(),
		Workers:     2,
		Run:         testRunner,
		MetricOrder: []string{"thr", "rtt"},
	}
}

// expectedBytes runs the scenario in-process and renders the report and
// manifest — the ground truth every distributed variant must match.
func expectedBytes(t *testing.T) (string, []byte) {
	t.Helper()
	res, err := fleet.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var man bytes.Buffer
	if err := res.Manifest.WriteJSON(&man); err != nil {
		t.Fatal(err)
	}
	return res.Report(), man.Bytes()
}

// startCollector builds a collector over a temp store and serves it.
func startCollector(t *testing.T, rec *obs.Recorder) (*Collector, *httptest.Server) {
	t.Helper()
	red, err := fleet.NewReducer(77, 3, testAxes(), nil, []string{"thr", "rtt"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(testScenarioFP, red, store, rec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(col.Handler())
	t.Cleanup(srv.Close)
	return col, srv
}

// mustPusher builds a client against the test collector with instant
// retry sleeps (the backoff schedule itself is under test elsewhere; unit
// tests should not wait it out).
func mustPusher(t *testing.T, baseURL string, rec *obs.Recorder, opts func(*PusherConfig)) *Pusher {
	t.Helper()
	cfg := PusherConfig{
		BaseURL:  baseURL,
		Scenario: testScenarioFP,
		Obs:      rec,
		Sleep:    func(time.Duration) {},
	}
	if opts != nil {
		opts(&cfg)
	}
	p, err := NewPusher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pushWorker runs one worker: the scenario restricted to the cells keep
// selects (nil = all), each finished run pushed through p.
func pushWorker(t *testing.T, p *Pusher, keep func(int, fleet.Cell) bool) {
	t.Helper()
	cfg := testConfig()
	cfg.CellFilter = keep
	cfg.OnRun = p.PushRun
	if _, err := fleet.Run(cfg); err != nil {
		t.Fatalf("worker fleet: %v", err)
	}
}

func TestLoopbackTwoWorkersByteIdentical(t *testing.T) {
	wantReport, wantManifest := expectedBytes(t)

	rec := obs.New()
	col, srv := startCollector(t, rec)
	w1 := mustPusher(t, srv.URL, rec, nil)
	w2 := mustPusher(t, srv.URL, rec, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		pushWorker(t, w1, func(i int, _ fleet.Cell) bool { return i%2 == 0 })
	}()
	pushWorker(t, w2, func(i int, _ fleet.Cell) bool { return i%2 == 1 })
	<-done

	select {
	case <-col.Done():
	default:
		t.Fatalf("collector incomplete: missing %v", col.Manifest())
	}

	res := col.Result()
	if got := res.Report(); got != wantReport {
		t.Errorf("merged report differs from single-process run:\n--- got ---\n%s--- want ---\n%s", got, wantReport)
	}
	var man bytes.Buffer
	if err := res.Manifest.WriteJSON(&man); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(man.Bytes(), wantManifest) {
		t.Errorf("merged manifest differs from single-process run:\n--- got ---\n%s--- want ---\n%s", man.Bytes(), wantManifest)
	}
	if n := rec.Counter("fleetsync/pushes").Value(); n != 6 {
		t.Errorf("pushes counter = %d, want 6", n)
	}

	man2 := col.Manifest()
	if man2.Total != 6 || man2.Received != 6 || man2.Failed != 1 || man2.Version != 6 {
		t.Errorf("sync manifest = %+v", man2)
	}
	for i, h := range man2.Have {
		if h.Index != i {
			t.Errorf("Have[%d].Index = %d, want dense ascending indexes", i, h.Index)
		}
	}
}

func TestRepushIsIdempotent(t *testing.T) {
	wantReport, _ := expectedBytes(t)

	col, srv := startCollector(t, nil)
	p := mustPusher(t, srv.URL, nil, nil)
	pushWorker(t, p, nil) // whole scenario
	// A crashed-and-restarted worker re-pushes everything it already
	// synced; every push must land as a duplicate no-op.
	pushWorker(t, p, nil)

	man := col.Manifest()
	if man.Received != 6 || man.Version != 6 {
		t.Errorf("after re-push: %+v — duplicates were folded", man)
	}
	if got := col.Result().Report(); got != wantReport {
		t.Errorf("report changed after re-push:\n%s", got)
	}
}

func TestWorkerSkipsRunsCollectorHas(t *testing.T) {
	col, srv := startCollector(t, nil)
	p := mustPusher(t, srv.URL, nil, nil)
	pushWorker(t, p, func(i int, _ fleet.Cell) bool { return i == 0 })

	man, err := p.Status()
	if err != nil {
		t.Fatal(err)
	}
	if man.Received != 3 || len(man.Have) != 3 {
		t.Fatalf("status after one cell = %+v", man)
	}
	// Every synced run is stored under its digest and verifies.
	for _, h := range man.Have {
		data, err := col.store.Get(h.Digest)
		if err != nil {
			t.Fatalf("stored run %s: %v", h.Digest, err)
		}
		art, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("stored run %s: %v", h.Digest, err)
		}
		if art.Record.Index != h.Index {
			t.Errorf("stored run %d under index %d", art.Record.Index, h.Index)
		}
	}
	pushWorker(t, p, func(i int, _ fleet.Cell) bool { return i == 1 })
	if !col.Complete() {
		t.Error("collector incomplete after both cells")
	}
}

func TestScenarioMismatchRejected(t *testing.T) {
	_, srv := startCollector(t, nil)
	p := mustPusher(t, srv.URL, nil, func(c *PusherConfig) {
		c.Scenario = strings.Repeat("ab", 32)
	})
	spec := fleet.RunSpec{Index: 0}
	err := p.PushRun(fleet.RunRecord{
		Index: spec.Index, Cell: `mode="a"`, Replicate: 0,
		Seed: fleet.RunSeed(77, `mode="a"`, 0), Status: fleet.RunOK,
	}, fleet.Metrics{"thr": 1})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("push for the wrong scenario: %v, want a 409 rejection", err)
	}
}

func TestBogusRecordRejectedByPositionalValidation(t *testing.T) {
	col, srv := startCollector(t, nil)
	p := mustPusher(t, srv.URL, nil, nil)
	// Right index and cell, wrong seed: a worker that ran some other
	// scenario under our fingerprint must not be folded.
	err := p.PushRun(fleet.RunRecord{
		Index: 0, Cell: `mode="a"`, Replicate: 0, Seed: 424242, Status: fleet.RunOK,
	}, fleet.Metrics{"thr": 1})
	if err == nil {
		t.Fatal("bogus seed accepted")
	}
	if col.Manifest().Received != 0 {
		t.Error("bogus run reached the reduction")
	}
}
