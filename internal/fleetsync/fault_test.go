package fleetsync

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Fault injection: the push protocol's whole point is that a flaky
// network — dropped connections, truncated bodies, corrupted bytes —
// cannot change the merged output. These tests wrap the client's
// Transport seam with a deterministic fault plan and demand the same
// byte-identical report the clean loopback test pins.

type faultKind int

const (
	faultNone     faultKind = iota
	faultDrop               // fail the request before it leaves
	faultTruncate           // deliver only the first half of the body
	faultCorrupt            // flip one byte of the body in transit
)

// faultingTransport consults a plan for every request, in order. The
// plan runs under the transport's lock, so stateful plans (counting
// PUTs, say) need no synchronization of their own.
type faultingTransport struct {
	base http.RoundTripper
	plan func(n int, req *http.Request) faultKind

	mu sync.Mutex
	n  int
}

func (ft *faultingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	ft.n++
	n := ft.n
	kind := ft.plan(n, req)
	ft.mu.Unlock()
	switch kind {
	case faultDrop:
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, fmt.Errorf("injected: connection dropped before request %d", n)
	case faultTruncate:
		return ft.base.RoundTrip(rewriteBody(req, func(b []byte) []byte {
			return b[:len(b)/2]
		}))
	case faultCorrupt:
		return ft.base.RoundTrip(rewriteBody(req, func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)/2] ^= 0x40
			return c
		}))
	}
	return ft.base.RoundTrip(req)
}

// rewriteBody rebuilds the request around a transformed body, keeping
// the original headers.
func rewriteBody(req *http.Request, f func([]byte) []byte) *http.Request {
	data, err := io.ReadAll(req.Body)
	_ = req.Body.Close()
	if err != nil {
		panic("fault_test: reading request body: " + err.Error())
	}
	out := f(data)
	r2 := req.Clone(req.Context())
	r2.Body = io.NopCloser(bytes.NewReader(out))
	r2.ContentLength = int64(len(out))
	return r2
}

func checkByteIdentical(t *testing.T, col *Collector) {
	t.Helper()
	wantReport, wantManifest := expectedBytes(t)
	res := col.Result()
	if got := res.Report(); got != wantReport {
		t.Errorf("report under faults differs from single-process run:\n--- got ---\n%s--- want ---\n%s", got, wantReport)
	}
	var man bytes.Buffer
	if err := res.Manifest.WriteJSON(&man); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(man.Bytes(), wantManifest) {
		t.Errorf("manifest under faults differs from single-process run:\n--- got ---\n%s--- want ---\n%s", man.Bytes(), wantManifest)
	}
}

func TestFlakyNetworkStillConvergesByteIdentical(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)

	// The plan: three dropped requests at fixed ordinals, plus the first
	// and fourth delivered pushes truncated to half their bytes. Six
	// runs and five faults make eleven requests, so every ordinal fires
	// and the fault counts below are exact whatever order the fleet's
	// workers push in.
	drops := map[int]bool{1: true, 6: true, 10: true}
	puts := 0
	ft := &faultingTransport{
		base: http.DefaultTransport,
		plan: func(n int, req *http.Request) faultKind {
			if drops[n] {
				return faultDrop
			}
			if req.Method == http.MethodPut {
				puts++
				if puts == 1 || puts == 4 {
					return faultTruncate
				}
			}
			return faultNone
		},
	}
	p := mustPusher(t, srv.URL, rec, func(c *PusherConfig) { c.Transport = ft })
	pushWorker(t, p, nil)

	if !col.Complete() {
		t.Fatalf("collector incomplete under faults: missing %+v", col.Manifest())
	}
	checkByteIdentical(t, col)
	if n := rec.Counter("fleetsync/pushes").Value(); n != 6 {
		t.Errorf("pushes = %d, want 6", n)
	}
	// A truncated body no longer hashes to its name: the collector
	// rejects it, and the worker retries the whole push.
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != 2 {
		t.Errorf("digest_rejects = %d, want one per truncated push", n)
	}
	if n := rec.Counter("fleetsync/retries").Value(); n != 5 {
		t.Errorf("retries = %d, want one per dropped or truncated request", n)
	}
}

func TestCorruptedUploadRetriedCleanlyAfterDigestReject(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)

	puts := 0
	ft := &faultingTransport{
		base: http.DefaultTransport,
		plan: func(n int, req *http.Request) faultKind {
			if req.Method == http.MethodPut {
				puts++
				if puts == 1 {
					return faultCorrupt
				}
			}
			return faultNone
		},
	}
	p := mustPusher(t, srv.URL, rec, func(c *PusherConfig) { c.Transport = ft })
	pushWorker(t, p, nil)

	// The collector hashed the mangled bytes and rejected them, and the
	// retry's clean push went through — so the run set still converges
	// exactly.
	if !col.Complete() {
		t.Fatalf("collector incomplete after corrupt-then-clean push: %+v", col.Manifest())
	}
	checkByteIdentical(t, col)
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != 1 {
		t.Errorf("digest_rejects = %d, want exactly the one corrupted push", n)
	}
}

func TestPersistentCorruptionNeverPoisonsStore(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)

	ft := &faultingTransport{
		base: http.DefaultTransport,
		plan: func(n int, req *http.Request) faultKind {
			if req.Method == http.MethodPut {
				return faultCorrupt
			}
			return faultNone
		},
	}
	p := mustPusher(t, srv.URL, rec, func(c *PusherConfig) {
		c.Transport = ft
		c.MaxAttempts = 3
	})

	rec0 := fleet.RunRecord{
		Index: 0, Cell: `mode="a"`, Replicate: 0,
		Seed: fleet.RunSeed(77, `mode="a"`, 0), Status: fleet.RunOK,
	}
	m0 := fleet.Metrics{"thr": 1, "rtt": 2}
	err := p.PushRun(rec0, m0)
	if err == nil {
		t.Fatal("push through a permanently corrupting wire succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("push error does not report its retry budget: %v", err)
	}

	// Every attempt delivered corrupt bytes and every one was rejected.
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != 3 {
		t.Errorf("digest_rejects = %d, want one per attempt", n)
	}
	if got := col.Manifest().Received; got != 0 {
		t.Errorf("collector folded %d runs from a corrupting wire", got)
	}
	// Nothing is stored under the artifact's true digest: the store was
	// never poisoned with the mangled bytes.
	data, err := EncodeArtifact(Artifact{Record: rec0, Metrics: m0})
	if err != nil {
		t.Fatal(err)
	}
	if col.store.Has(Digest(data)) {
		t.Error("corrupted push left a blob in the store")
	}
}

// put sends one raw push of body under digest, as a hostile or broken
// worker might.
func put(t *testing.T, url, digest string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url+BasePath+"/runs/"+digest, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderScenario, testScenarioFP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	return resp
}

func TestOversizedPushRejected(t *testing.T) {
	col, srv := startCollector(t, nil)
	body := bytes.Repeat([]byte{'x'}, MaxBlobBytes+1)
	digest := Digest(body)
	if resp := put(t, srv.URL, digest, bytes.NewReader(body)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized push: HTTP %d, want 413", resp.StatusCode)
	}
	if got := col.Manifest().Received; got != 0 {
		t.Errorf("collector folded %d runs from an oversized push", got)
	}
	if col.store.Has(digest) {
		t.Error("oversized push left a blob in the store")
	}
}

// firstRead signals once the handler has read the first bytes of a
// request body.
type firstRead struct {
	io.ReadCloser
	once sync.Once
	read chan struct{}
}

func (f *firstRead) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if n > 0 {
		f.once.Do(func() { close(f.read) })
	}
	return n, err
}

// TestStalledPushDoesNotBlockStatus pins that a push's body is read
// without the collector's lock: a worker that stalls mid-body must not
// hold up a second client's status query.
func TestStalledPushDoesNotBlockStatus(t *testing.T) {
	red, err := fleet.NewReducer(77, 3, testAxes(), nil, []string{"thr", "rtt"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(testScenarioFP, red, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			r.Body = &firstRead{ReadCloser: r.Body, read: read}
		}
		col.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	data, err := EncodeArtifact(Artifact{Record: fleet.RunRecord{
		Index: 0, Cell: `mode="a"`, Replicate: 0,
		Seed: fleet.RunSeed(77, `mode="a"`, 0), Status: fleet.RunOK,
	}, Metrics: fleet.Metrics{"thr": 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Half the artifact goes out, then the body stalls until the test
	// ends it.
	body, stall := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, srv.URL+BasePath+"/runs/"+Digest(data), body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderScenario, testScenarioFP)
	req.ContentLength = int64(len(data))
	pushed := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			drain(resp)
		}
		pushed <- err
	}()
	if _, err := stall.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-read:
	case err := <-pushed:
		t.Fatalf("stalled push ended early: %v", err)
	}

	status := &http.Client{Timeout: 5 * time.Second}
	resp, err := status.Get(srv.URL + BasePath + "/status")
	if err != nil {
		t.Errorf("status behind a stalled push: %v", err)
	} else {
		drain(resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status behind a stalled push: HTTP %d", resp.StatusCode)
		}
	}

	stall.CloseWithError(errors.New("worker gave up"))
	<-pushed
	if got := col.Manifest().Received; got != 0 {
		t.Errorf("collector folded %d runs from a stalled push", got)
	}
}
