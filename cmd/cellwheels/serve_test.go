package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSigtermDrainWithIdleConnection pins the daemon's exit contract: a
// SIGTERM received while a job is queued and a keep-alive client
// connection sits idle must still drain — the job runs to completion
// and writes its artifacts, the idle connection is torn down rather
// than waited on, the obs manifest lands — its -metrics path in
// directories that do not exist yet — and realMain returns 0.
func TestSigtermDrainWithIdleConnection(t *testing.T) {
	data := t.TempDir()
	metrics := filepath.Join(t.TempDir(), "fresh", "dir", "metrics.json")
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"serve", "-addr", "127.0.0.1:0", "-data", data, "-workers", "2", "-metrics", metrics})
	}()

	// The daemon publishes its bound address once the listener is live.
	addrFile := filepath.Join(data, "wheelsd-addr.txt")
	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if raw, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(raw)) > 0 {
			addr = string(bytes.TrimSpace(raw))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wheelsd-addr.txt never appeared; daemon did not start")
		}
		time.Sleep(10 * time.Millisecond)
	}

	spec := `{"kind":"campaign","config":{"seed":7,"limit_km":6,"skip_apps":true,"skip_static":true,"skip_passive":true}}`
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, st.ID)
	}

	// Park an idle keep-alive connection: one completed request, then
	// nothing. The drain must close it, not wait for it.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("idle dial: %v", err)
	}
	defer idle.Close()
	fmt.Fprintf(idle, "GET /v1/jobs HTTP/1.1\r\nHost: %s\r\n\r\n", addr)
	if _, err := idle.Read(make([]byte, 4096)); err != nil {
		t.Fatalf("idle conn first response: %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("realMain exited %d after SIGTERM, want 0", code)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon did not drain within 2 minutes of SIGTERM")
	}

	// The accepted job's artifacts must exist: drain ran it to completion.
	for _, name := range []string{"dataset.json", "report.txt", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(data, "jobs", st.ID, name)); err != nil {
			t.Errorf("after drain: %v", err)
		}
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("obs manifest not written: %v", err)
	}

	// And the parked connection is dead, not leaked.
	_ = idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Error("idle connection still delivering data after drain")
	}
}
