package fleetsync

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/nuwins/cellwheels/internal/fleet"
)

// TestPushReusesOneConnection pins the protocol's request budget and
// the client's body-drain discipline: each pushed run costs exactly one
// request, and every response body is drained before Close, so the
// transport returns the connection to its idle pool and a whole
// worker's push rides ONE TCP connection. If a response stops being
// drained, the transport opens a fresh connection for the next request
// and the count here climbs past one.
func TestPushReusesOneConnection(t *testing.T) {
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

	var newConns, requests atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		col.Handler().ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	// A dedicated transport isolates the count from other tests sharing
	// http.DefaultTransport's idle pool.
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	p := mustPusher(t, srv.URL, nil, func(cfg *PusherConfig) { cfg.Transport = tr })

	cfg := testConfig()
	cfg.Workers = 1 // sequential pushes: reuse failure would force conn #2
	cfg.OnRun = p.PushRun
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatalf("worker fleet: %v", err)
	}

	if got, want := requests.Load(), int64(len(res.Manifest.Runs)); got != want {
		t.Fatalf("pushing %d runs made %d requests, want one per run", want, got)
	}
	if got := newConns.Load(); got != 1 {
		t.Errorf("worker push opened %d TCP connections, want 1 (requests=%d); a response body is not being drained before Close",
			got, requests.Load())
	}
}
