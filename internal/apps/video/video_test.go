package video

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/unit"
)

const tick = 50 * time.Millisecond

func runConstant(dl unit.BitRate) Result {
	s := NewSession(DefaultConfig())
	for !s.Done() {
		s.Step(tick, dl)
	}
	return s.Result()
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if len(c.Ladder) != 4 {
		t.Fatalf("ladder = %v, want 4 rungs (§D.1)", c.Ladder)
	}
	want := []float64{5, 10, 50, 100}
	for i, r := range c.Ladder {
		if r != want[i] {
			t.Errorf("ladder[%d] = %v, want %v", i, r, want[i])
		}
	}
	if c.ChunkSeconds != 2 || c.RunDuration != 3*time.Minute {
		t.Errorf("config = %+v", c)
	}
	if c.Lambda != 1 || c.Mu != 100 {
		t.Errorf("QoE weights λ=%v μ=%v, want 1/100", c.Lambda, c.Mu)
	}
}

func TestBBAPick(t *testing.T) {
	c := DefaultConfig()
	if got := c.bbaPick(0); got != 0 {
		t.Errorf("empty buffer rung = %d", got)
	}
	if got := c.bbaPick(3); got != 0 {
		t.Errorf("below reservoir rung = %d", got)
	}
	if got := c.bbaPick(25); got != 3 {
		t.Errorf("full cushion rung = %d", got)
	}
	// Monotone in buffer level.
	prev := -1
	for b := 0.0; b <= 30; b += 0.5 {
		r := c.bbaPick(b)
		if r < prev {
			t.Fatalf("rung decreased at buffer %v", b)
		}
		prev = r
	}
}

func TestFastLinkHighQoE(t *testing.T) {
	// A clean 300 Mbps link should play the top rung with no stalls —
	// approaching the paper's best static QoE of 96.29.
	res := runConstant(300 * unit.Mbps)
	if res.AvgQoE < 85 {
		t.Errorf("QoE on fast link = %v, want ≈96", res.AvgQoE)
	}
	if res.RebufferFrac > 0.01 {
		t.Errorf("rebuffering on fast link = %v", res.RebufferFrac)
	}
	if res.AvgBitrate < 85 {
		t.Errorf("avg bitrate = %v", res.AvgBitrate)
	}
}

func TestSlowLinkNegativeQoE(t *testing.T) {
	// Below the lowest rung the session stalls constantly; §7.2 sees 40%
	// of driving runs with negative QoE.
	res := runConstant(2 * unit.Mbps)
	if res.AvgQoE >= 0 {
		t.Errorf("QoE on 2 Mbps link = %v, want negative", res.AvgQoE)
	}
	if res.RebufferFrac < 0.3 {
		t.Errorf("rebuffer frac = %v, want heavy stalling", res.RebufferFrac)
	}
}

func TestMidLinkPicksMidRung(t *testing.T) {
	res := runConstant(30 * unit.Mbps)
	if res.AvgBitrate < 5 || res.AvgBitrate > 50 {
		t.Errorf("avg bitrate on 30 Mbps = %v", res.AvgBitrate)
	}
	if res.RebufferFrac > 0.25 {
		t.Errorf("rebuffer frac = %v", res.RebufferFrac)
	}
}

func TestZeroLinkAllStall(t *testing.T) {
	res := runConstant(0)
	if res.Chunks != 0 {
		t.Errorf("chunks on dead link = %d", res.Chunks)
	}
	if res.AvgQoE >= 0 {
		t.Errorf("QoE on dead link = %v", res.AvgQoE)
	}
}

func TestQoEPenalizesSwitches(t *testing.T) {
	// Alternate capacity to force rate switching; the average QoE must
	// fall below the average bitrate because of the |ΔB| term.
	s := NewSession(DefaultConfig())
	for i := 0; !s.Done(); i++ {
		dl := 120 * unit.Mbps
		if (i/200)%2 == 1 {
			dl = 8 * unit.Mbps
		}
		s.Step(tick, dl)
	}
	res := s.Result()
	if res.Switches == 0 {
		t.Fatal("no rate switches under oscillating capacity")
	}
	if res.AvgQoE >= res.AvgBitrate {
		t.Errorf("QoE %v not penalized below bitrate %v", res.AvgQoE, res.AvgBitrate)
	}
}

func TestRebufferBounded(t *testing.T) {
	res := runConstant(1 * unit.Mbps)
	if res.RebufferFrac < 0 || res.RebufferFrac > 1 {
		t.Errorf("rebuffer frac = %v outside [0,1]", res.RebufferFrac)
	}
}

func TestDoneStopsStepping(t *testing.T) {
	s := NewSession(DefaultConfig())
	for !s.Done() {
		s.Step(tick, 50*unit.Mbps)
	}
	before := s.Result()
	s.Step(tick, 50*unit.Mbps)
	if got := s.Result(); got != before {
		t.Error("result changed after Done")
	}
}
