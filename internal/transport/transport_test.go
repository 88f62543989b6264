package transport

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

const tick = 50 * time.Millisecond

// runFlow drives a flow over a constant link and reports mean goodput.
func runFlow(f *Flow, capacity unit.BitRate, rtt time.Duration, span time.Duration) unit.BitRate {
	var delivered unit.Bytes
	n := int(span / tick)
	for i := 0; i < n; i++ {
		r := f.Step(tick, capacity, rtt, 0)
		delivered += r.Delivered
	}
	return delivered.RateOver(span)
}

func TestFlowUtilizesStableLink(t *testing.T) {
	f := NewFlow(simrand.New(1))
	got := runFlow(f, 100*unit.Mbps, 40*time.Millisecond, 30*time.Second)
	if got < 55*unit.Mbps {
		t.Errorf("goodput on stable 100 Mbps link = %v, want > 55 Mbps", got)
	}
	if got > 100*unit.Mbps {
		t.Errorf("goodput %v exceeds capacity", got)
	}
}

func TestFlowNeverExceedsCapacity(t *testing.T) {
	f := NewFlow(simrand.New(2))
	capacity := 20 * unit.Mbps
	var delivered unit.Bytes
	for i := 0; i < 2000; i++ {
		r := f.Step(tick, capacity, 60*time.Millisecond, 0)
		delivered += r.Delivered
		perTick := capacity.BytesIn(tick)
		if r.Delivered > perTick+1 {
			t.Fatalf("tick delivered %v > capacity %v", r.Delivered, perTick)
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestFlowSlowStartRampsQuickly(t *testing.T) {
	f := NewFlow(simrand.New(3))
	// After 2 seconds on a clean link, the window should be far above the
	// initial 10 MSS.
	runFlow(f, 200*unit.Mbps, 30*time.Millisecond, 2*time.Second)
	if f.cwnd < 40*MSS {
		t.Errorf("window after slow start = %.0f bytes", f.cwnd)
	}
}

func TestFlowBacksOffOnLoss(t *testing.T) {
	f := NewFlow(simrand.New(4))
	runFlow(f, 100*unit.Mbps, 40*time.Millisecond, 5*time.Second)
	before := f.cwnd
	// Force overflow by collapsing capacity: the queue fills and drops.
	sawLoss := false
	for i := 0; i < 400; i++ {
		r := f.Step(tick, 1*unit.Mbps, 40*time.Millisecond, 0)
		if r.Lost {
			sawLoss = true
			break
		}
	}
	if !sawLoss {
		t.Fatal("no loss after capacity collapse")
	}
	if f.cwnd >= before {
		t.Errorf("window did not shrink: %.0f -> %.0f", before, f.cwnd)
	}
}

func TestFlowRecoversAfterOutage(t *testing.T) {
	f := NewFlow(simrand.New(5))
	runFlow(f, 100*unit.Mbps, 40*time.Millisecond, 5*time.Second)
	// 100 ms outage (a handover).
	f.Step(tick, 0, 40*time.Millisecond, 0)
	f.Step(tick, 0, 40*time.Millisecond, 0)
	after := runFlow(f, 100*unit.Mbps, 40*time.Millisecond, 5*time.Second)
	if after < 40*unit.Mbps {
		t.Errorf("post-outage goodput = %v", after)
	}
}

func TestFlowOutageRTTCapped(t *testing.T) {
	// Regression: the outage branch adds lastRTT to the reported RTT, and
	// the report feeds back into lastRTT — so before the MaxRTT cap a
	// multi-second zero-capacity window doubled the RTT every tick without
	// bound (50 ms → minutes within a simulated five seconds).
	f := NewFlow(simrand.New(8))
	runFlow(f, 50*unit.Mbps, 40*time.Millisecond, 3*time.Second)
	if f.queue == 0 {
		t.Fatal("no queue built before the outage; the test needs one")
	}
	prev := time.Duration(0)
	for i := 0; i < int(5*time.Second/tick); i++ {
		r := f.Step(tick, 0, 40*time.Millisecond, 0)
		if r.RTT > MaxRTT {
			t.Fatalf("tick %d: outage RTT %v exceeds MaxRTT %v", i, r.RTT, MaxRTT)
		}
		if prev >= MaxRTT && r.RTT > prev {
			t.Fatalf("tick %d: RTT still growing past the cap: %v -> %v", i, prev, r.RTT)
		}
		prev = r.RTT
	}
	if prev != MaxRTT {
		t.Errorf("after a 5 s outage RTT = %v, want pinned at MaxRTT %v", prev, MaxRTT)
	}
}

func TestFlowOutageDeliversNothing(t *testing.T) {
	f := NewFlow(simrand.New(6))
	runFlow(f, 50*unit.Mbps, 40*time.Millisecond, 2*time.Second)
	r := f.Step(tick, 0, 40*time.Millisecond, 0)
	if r.Delivered != 0 {
		t.Errorf("delivered %v during outage", r.Delivered)
	}
}

func TestFlowBufferbloatInflatesRTT(t *testing.T) {
	f := NewFlow(simrand.New(7))
	base := 50 * time.Millisecond
	var maxRTT time.Duration
	for i := 0; i < 1200; i++ {
		r := f.Step(tick, 10*unit.Mbps, base, 0)
		if r.RTT > maxRTT {
			maxRTT = r.RTT
		}
	}
	if maxRTT < 2*base {
		t.Errorf("max RTT %v never exceeded 2× base %v; no bufferbloat", maxRTT, base)
	}
}

func TestFlowHigherLossLowersGoodput(t *testing.T) {
	// With a shallow buffer there is no queue to ride out backoffs, so
	// loss visibly costs goodput.
	shallow := Options{BufferBDPs: 0.5, MinBuffer: 8 * 1024}
	run := func(extraLoss float64) unit.BitRate {
		f := NewFlowOptions(simrand.New(8), shallow)
		var delivered unit.Bytes
		n := int(30 * time.Second / tick)
		for i := 0; i < n; i++ {
			delivered += f.Step(tick, 100*unit.Mbps, 40*time.Millisecond, extraLoss).Delivered
		}
		return delivered.RateOver(30 * time.Second)
	}
	clean, lossy := run(0), run(0.8)
	if lossy >= clean {
		t.Errorf("lossy goodput %v not below clean %v", lossy, clean)
	}
}

func TestFlowShallowBufferLowersRTTTail(t *testing.T) {
	// The bufferbloat ablation: shrinking the buffer cuts the RTT tail.
	maxRTT := func(opts Options) time.Duration {
		f := NewFlowOptions(simrand.New(77), opts)
		var worst time.Duration
		for i := 0; i < 1200; i++ {
			if r := f.Step(tick, 10*unit.Mbps, 50*time.Millisecond, 0); r.RTT > worst {
				worst = r.RTT
			}
		}
		return worst
	}
	deep := maxRTT(Options{BufferBDPs: 6})
	shallow := maxRTT(Options{BufferBDPs: 1})
	if shallow >= deep {
		t.Errorf("shallow-buffer max RTT %v not below deep %v", shallow, deep)
	}
}

func TestFlowTracksVaryingCapacity(t *testing.T) {
	f := NewFlow(simrand.New(9))
	// Alternate 5 s at 100 Mbps and 5 s at 2 Mbps; goodput should land
	// between the two but well below the high phase.
	var delivered unit.Bytes
	span := 40 * time.Second
	for elapsed := time.Duration(0); elapsed < span; elapsed += tick {
		c := 100 * unit.Mbps
		if (elapsed/(5*time.Second))%2 == 1 {
			c = 2 * unit.Mbps
		}
		delivered += f.Step(tick, c, 50*time.Millisecond, 0).Delivered
	}
	got := delivered.RateOver(span)
	if got < 2*unit.Mbps || got > 60*unit.Mbps {
		t.Errorf("goodput on alternating link = %v", got)
	}
}

func TestFlowDeterministic(t *testing.T) {
	run := func() unit.BitRate {
		return runFlow(NewFlow(simrand.New(42)), 80*unit.Mbps, 45*time.Millisecond, 10*time.Second)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

func TestPingerSchedule(t *testing.T) {
	p := NewPinger(simrand.New(1))
	total := 0
	for i := 0; i < int(20*time.Second/tick); i++ {
		total += len(p.Step(tick, 50*unit.Mbps, 40*time.Millisecond, 0.3, false))
	}
	// 20 s at 200 ms per echo = 100 samples.
	if total < 95 || total > 105 {
		t.Errorf("samples in 20 s = %d, want ≈100", total)
	}
}

func TestPingerRTTAboveBase(t *testing.T) {
	p := NewPinger(simrand.New(2))
	base := 40 * time.Millisecond
	for i := 0; i < 2000; i++ {
		for _, s := range p.Step(tick, 100*unit.Mbps, base, 0.2, false) {
			if s.Lost {
				continue
			}
			if s.RTT < base {
				t.Fatalf("RTT %v below base %v", s.RTT, base)
			}
			if s.RTT > 3100*time.Millisecond {
				t.Fatalf("RTT %v above cap", s.RTT)
			}
		}
	}
}

func TestPingerFadeInflatesRTT(t *testing.T) {
	collect := func(capacity unit.BitRate) (med float64) {
		p := NewPinger(simrand.New(3))
		var xs []float64
		for i := 0; i < 4000; i++ {
			for _, s := range p.Step(tick, capacity, 40*time.Millisecond, 0.3, false) {
				if !s.Lost {
					xs = append(xs, unit.Milliseconds(s.RTT))
				}
			}
		}
		return medianOf(xs)
	}
	good := collect(100 * unit.Mbps)
	faded := collect(1 * unit.Mbps)
	if faded < good*2 {
		t.Errorf("fade median %v not well above good median %v", faded, good)
	}
}

func TestPingerHandoverDelaysOrDrops(t *testing.T) {
	p := NewPinger(simrand.New(4))
	lost, delayed := 0, 0
	for i := 0; i < 4000; i++ {
		for _, s := range p.Step(tick, 50*unit.Mbps, 40*time.Millisecond, 0.2, true) {
			if s.Lost {
				lost++
			} else if s.RTT > 60*time.Millisecond {
				delayed++
			}
		}
	}
	if lost == 0 {
		t.Error("no pings lost during handover")
	}
	if delayed == 0 {
		t.Error("no pings delayed during handover")
	}
}

func TestPingerOutageLosesAll(t *testing.T) {
	p := NewPinger(simrand.New(5))
	for i := 0; i < 400; i++ {
		for _, s := range p.Step(tick, 0, 40*time.Millisecond, 0, false) {
			if !s.Lost {
				t.Fatal("ping survived zero capacity")
			}
		}
	}
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
