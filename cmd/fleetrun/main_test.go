package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/serve"
)

// smallScenario is a 3-run (1 cell × 3 replicates) fleet small enough
// for CLI tests.
const smallScenario = `{
  "master_seed": 5,
  "replicates": 3,
  "base": {"limit_km": 6, "skip_apps": true, "skip_static": true, "skip_passive": true}
}`

func writeScenario(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(smallScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFleetManifest(t *testing.T, out string) fleet.Manifest {
	t.Helper()
	f, err := os.Open(filepath.Join(out, "fleet-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	man, err := fleet.ReadManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestFleetrunSuccess(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	code := realMain([]string{
		"-scenario", writeScenario(t, dir),
		"-workers", "2",
		"-out", out,
		"-metrics", filepath.Join(dir, "obs", "nested", "obs.json"),
		"-archive",
	})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	man := readFleetManifest(t, out)
	if man.Failed != 0 || len(man.Runs) != 3 {
		t.Fatalf("manifest = %d runs, %d failed; want 3 ok", len(man.Runs), man.Failed)
	}
	for _, rec := range man.Runs {
		if rec.Dataset == "" {
			t.Errorf("run %d has no archived dataset despite -archive", rec.Index)
		}
		if _, err := os.Stat(filepath.Join(out, "runs", rec.Dataset)); err != nil {
			t.Errorf("archived dataset missing: %v", err)
		}
	}
	report, err := os.ReadFile(filepath.Join(out, "fleet-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "3 replicates") {
		t.Errorf("report file looks wrong:\n%s", report)
	}
	// -metrics creates its parent directories instead of failing with a
	// bare open error.
	if _, err := os.Stat(filepath.Join(dir, "obs", "nested", "obs.json")); err != nil {
		t.Errorf("obs manifest missing: %v", err)
	}
}

// TestFleetrunPanicContainment pins the acceptance contract through the
// real CLI path: an injected per-run panic yields a manifest failure
// entry and a nonzero exit code without killing sibling runs.
func TestFleetrunPanicContainment(t *testing.T) {
	testHookStart = func(index int, cell string, replicate int) {
		if index == 1 {
			panic("injected CLI failure")
		}
	}
	defer func() { testHookStart = nil }()

	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	code := realMain([]string{
		"-scenario", writeScenario(t, dir),
		"-workers", "2",
		"-out", out,
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 for a fleet with a failed run", code)
	}
	man := readFleetManifest(t, out)
	if man.Failed != 1 || len(man.Runs) != 3 {
		t.Fatalf("manifest = %d runs, %d failed; want 3 runs, 1 failed", len(man.Runs), man.Failed)
	}
	for _, rec := range man.Runs {
		if rec.Index == 1 {
			if rec.Status != fleet.RunFailed || !strings.Contains(rec.Error, "injected CLI failure") {
				t.Errorf("run 1 = %+v, want the contained panic", rec)
			}
		} else if rec.Status != fleet.RunOK {
			t.Errorf("sibling run %d was killed: %+v", rec.Index, rec)
		}
	}
}

func TestFleetrunUsageErrors(t *testing.T) {
	if code := realMain(nil); code != 2 {
		t.Errorf("missing -scenario: exit %d, want 2", code)
	}
	if code := realMain([]string{"-scenario", "/does/not/exist.json"}); code != 1 {
		t.Errorf("unreadable scenario: exit %d, want 1", code)
	}
	dir := t.TempDir()
	scenario := writeScenario(t, dir)
	if code := realMain([]string{"-scenario", scenario, "-cells", "0"}); code != 2 {
		t.Errorf("-cells without -push: exit %d, want 2", code)
	}
	// -cells validation fails before any network or campaign work.
	if code := realMain([]string{"-scenario", scenario, "-push", "http://127.0.0.1:1", "-cells", "5"}); code != 1 {
		t.Errorf("out-of-range -cells: exit %d, want 1", code)
	}
	if code := realMain([]string{"-scenario", scenario, "-push", "http://127.0.0.1:1", "-cells", "x-y"}); code != 1 {
		t.Errorf("malformed -cells: exit %d, want 1", code)
	}
}

func TestParseCells(t *testing.T) {
	got, err := parseCells("0-1, 3", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("parseCells = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i] {
			t.Errorf("cell %d missing from %v", i, got)
		}
	}
	if set, err := parseCells("", 5); set != nil || err != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", set, err)
	}
	for _, bad := range []string{"2-1", "-1", "5", "1-5", "a"} {
		if _, err := parseCells(bad, 5); err == nil {
			t.Errorf("parseCells(%q) accepted", bad)
		}
	}
}

// sweepScenario has two sweep cells so a distributed fleet can split it
// across workers.
const sweepScenario = `{
  "master_seed": 5,
  "replicates": 2,
  "base": {"limit_km": 6, "skip_apps": true, "skip_static": true, "skip_passive": true},
  "sweep": [{"field": "disable_edge", "values": [false, true]}]
}`

// TestFleetrunDistributedMatchesSingleProcess is the CLI-level pin of
// the fleetsync contract: a wheelsd collect job fed by two -push workers
// writes the same report and manifest, byte for byte, as one local
// fleetrun of the same scenario.
func TestFleetrunDistributedMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(sweepScenario), 0o644); err != nil {
		t.Fatal(err)
	}

	single := filepath.Join(dir, "single")
	if code := realMain([]string{"-scenario", path, "-workers", "2", "-out", single}); code != 0 {
		t.Fatalf("single-process run: exit %d", code)
	}

	data := filepath.Join(dir, "daemon")
	srv, err := serve.New(serve.Config{DataDir: data, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// A -push worker fingerprints the scenario file's exact bytes, so the
	// collect job pins the same hash.
	fp := fmt.Sprintf("%x", sha256.Sum256([]byte(sweepScenario)))
	spec := `{"kind":"collect","fingerprint":"` + fp + `","scenario":` + sweepScenario + `}`
	st, err := jobStatus(http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateRunning {
		t.Fatalf("collect job submitted as %q, want %q", st.State, serve.StateRunning)
	}
	for _, cell := range []string{"0", "1"} {
		if code := realMain([]string{"-scenario", path, "-push", ts.URL, "-cells", cell}); code != 0 {
			t.Fatalf("worker for cell %s: exit %d", cell, code)
		}
	}
	for deadline := time.Now().Add(time.Minute); st.State == serve.StateRunning; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("collect job never finished")
		}
		if st, err = jobStatus(http.Get(ts.URL + "/v1/jobs/" + st.ID)); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != serve.StateDone {
		t.Fatalf("collect job ended %q: %s", st.State, st.Error)
	}

	for _, name := range []string{"fleet-report.txt", "fleet-manifest.json"} {
		want, err := os.ReadFile(filepath.Join(single, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(data, "jobs", st.ID, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("distributed %s differs from single-process run:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// jobStatus decodes one daemon job-status response.
func jobStatus(resp *http.Response, err error) (serve.JobStatus, error) {
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("job status (HTTP %d): %w", resp.StatusCode, err)
	}
	return st, nil
}

// archiveScenario sets a relative archive_dir, which must resolve
// against the scenario file's directory — not fleetrun's cwd.
const archiveScenario = `{
  "master_seed": 5,
  "replicates": 1,
  "archive_dir": "results/runs",
  "base": {"limit_km": 6, "skip_apps": true, "skip_static": true, "skip_passive": true}
}`

func TestFleetrunScenarioRelativeArchiveDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(archiveScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-scenario", path, "-out", filepath.Join(dir, "out")}); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	// The archive (and its parents) landed next to the scenario file.
	if _, err := os.Stat(filepath.Join(dir, "results", "runs", "run-000.json")); err != nil {
		t.Errorf("scenario-relative archive missing: %v", err)
	}
	if _, err := os.Stat("results"); err == nil {
		t.Error("archive_dir resolved against the cwd, not the scenario file")
	}
}

func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	os.Stderr = old
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestFleetrunUnwritableOutDirError(t *testing.T) {
	dir := t.TempDir()
	scenario := writeScenario(t, dir)
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	stderr := captureStderr(t, func() {
		code = realMain([]string{"-scenario", scenario, "-out", filepath.Join(blocker, "out")})
	})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "create output directory") {
		t.Errorf("unwritable -out produced a bare error:\n%s", stderr)
	}
}
