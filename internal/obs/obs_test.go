package obs

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp pins the wiring contract: instrumented code holds
// a possibly-nil *Recorder permanently, so every method must be callable
// through nil without panicking or doing work.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Counter("x").Add(3)
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Gauge("g").Set(1.5)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %v", got)
	}
	r.Histogram("h", []float64{1, 2}).Observe(1)
	r.SetLabel("k", "v")
	r.StartPhase("p")()
	r.EnableProgress(&bytes.Buffer{}, time.Millisecond)
	r.StartProgress(ProgressInfo{})()
	if r.Elapsed() != 0 {
		t.Error("nil Elapsed != 0")
	}
	m := r.Manifest()
	if m.Schema != ManifestSchema || len(m.Counters) != 0 {
		t.Errorf("nil manifest = %+v", m)
	}
}

func TestCountersAndGaugesConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ticks")
			for i := 0; i < 1000; i++ {
				c.Add(1)
				r.Gauge("odo").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ticks").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("skew_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.9, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 1, 1, 2} // <=1, <=10, <=100, overflow
	for i, n := range want {
		if s.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Count != 6 || s.Min != 0.5 || s.Max != 5000 {
		t.Errorf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
}

func TestPhasesAccumulate(t *testing.T) {
	r := New()
	stop := r.StartPhase("work")
	time.Sleep(2 * time.Millisecond)
	stop()
	r.StartPhase("work")() // immediate re-entry adds ~0
	m := r.Manifest()
	if m.PhaseMS["work"] <= 0 {
		t.Errorf("phase wall = %v", m.PhaseMS["work"])
	}
}

// TestPhaseRecordsHeap pins the heap gauge a phase sets when it ends:
// present, positive, and no larger than the runtime's whole heap.
func TestPhaseRecordsHeap(t *testing.T) {
	r := New()
	keep := make([]byte, 8<<20)
	r.StartPhase("alloc")()
	got := r.Snapshot().Gauges["mem/alloc/heap_mb"]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if got < 8 || got > float64(ms.HeapSys)/(1<<20) {
		t.Errorf("mem/alloc/heap_mb = %v, want at least the 8 MiB held and at most HeapSys %v MiB", got, float64(ms.HeapSys)/(1<<20))
	}
	runtime.KeepAlive(keep)
}

func TestManifestRoundTrip(t *testing.T) {
	r := New()
	r.SetLabel("seed", "42")
	r.Counter("table/rtt").Add(7)
	r.Gauge("route/total_km").Set(150)
	r.Histogram("skew", []float64{10}).Observe(3)

	var buf bytes.Buffer
	if err := r.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != ManifestSchema || m.Labels["seed"] != "42" ||
		m.Counters["table/rtt"] != 7 || m.Gauges["route/total_km"] != 150 ||
		m.Histograms["skew"].Count != 1 {
		t.Errorf("round trip mangled manifest: %+v", m)
	}
	if m.GoVersion == "" || m.GOMAXPROCS < 1 {
		t.Errorf("missing runtime facts: %+v", m)
	}
	if _, err := ReadManifest(strings.NewReader("{")); err == nil {
		t.Error("bad manifest accepted")
	}
}

// TestProgressReports drives the reporter against synthetic lane metrics
// and checks the line shape: the fraction is the slowest lane's odometer
// over the planned distance, and a lane a step past it reads as done.
func TestProgressReports(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.EnableProgress(&buf, time.Millisecond)
	r.Counter("lane/V/ticks").Add(50)
	r.Gauge("lane/V/odometer_km").Set(12.5)
	r.Counter("lane/T/ticks").Add(80)
	r.Gauge("lane/T/odometer_km").Set(20)
	info := ProgressInfo{TotalKm: 25, Lanes: []string{"V", "T"}}
	lastLine := func() string {
		stop := r.StartProgress(info)
		time.Sleep(5 * time.Millisecond)
		stop()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		return lines[len(lines)-1]
	}
	if line := lastLine(); !strings.HasPrefix(line, "obs: 12.5/25.0 km 50.0% | ticks 50 |") {
		t.Errorf("progress line %q does not report the slowest lane", line)
	}

	// The drive's last tick carries both lanes a step past the plan.
	r.Counter("lane/V/ticks").Add(51)
	r.Gauge("lane/V/odometer_km").Set(25.01)
	r.Counter("lane/T/ticks").Add(21)
	r.Gauge("lane/T/odometer_km").Set(25.01)
	if line := lastLine(); !strings.HasPrefix(line, "obs: 25.0/25.0 km 100.0% | ticks 101 |") || !strings.HasSuffix(line, "| eta 0s") {
		t.Errorf("final progress line %q, want 100.0%% at 101 ticks with eta 0s", line)
	}
}

// TestProgressReportsCrowd pins the crowd figures on the status line:
// with ProgressInfo.Crowd set the reporter appends the attached-UE count
// and event rate read from the crowd counters/gauges; without it the
// line stays in its historical shape.
func TestProgressReportsCrowd(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.EnableProgress(&buf, time.Millisecond)
	r.Counter("lane/V/ticks").Add(50)
	r.Gauge("lane/V/odometer_km").Set(12.5)
	r.Counter("crowd/V/events").Add(4000)
	r.Gauge("crowd/V/attached").Set(95000)
	stop := r.StartProgress(ProgressInfo{TotalKm: 25, Lanes: []string{"V"}, Crowd: true})
	time.Sleep(5 * time.Millisecond)
	stop()
	out := buf.String()
	if !strings.Contains(out, "crowd 95.0k att") {
		t.Errorf("progress output %q lacks attached crowd figure", out)
	}
	if !strings.Contains(out, "ev/s") {
		t.Errorf("progress output %q lacks event rate", out)
	}

	buf.Reset()
	r2 := New()
	r2.EnableProgress(&buf, time.Millisecond)
	stop = r2.StartProgress(ProgressInfo{TotalKm: 25, Lanes: []string{"V"}})
	time.Sleep(3 * time.Millisecond)
	stop()
	if strings.Contains(buf.String(), "crowd") {
		t.Errorf("progress output %q mentions crowd without Crowd set", buf.String())
	}
}

// TestProgressDisabledWithoutEnable pins that StartProgress without
// EnableProgress (the -metrics-only path) spawns nothing.
func TestProgressDisabledWithoutEnable(t *testing.T) {
	r := New()
	stop := r.StartProgress(ProgressInfo{TotalKm: 1, Lanes: []string{"V"}})
	stop() // must not hang or panic
}

func TestFingerprintStable(t *testing.T) {
	type cfg struct{ Seed int64 }
	a, b := Fingerprint(cfg{7}), Fingerprint(cfg{7})
	if a != b {
		t.Errorf("same value hashed differently: %s vs %s", a, b)
	}
	if a == Fingerprint(cfg{8}) {
		t.Error("different values share a fingerprint")
	}
	if len(a) != 64 {
		t.Errorf("fingerprint length %d", len(a))
	}
}
