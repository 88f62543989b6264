// Package gaming models the paper's cloud-gaming workload (§7.3, §E):
// a Steam-Remote-Play-style session streaming 60 FPS video from a GPU
// cloud server, with a bitrate adapter capped at 100 Mbps, frame-rate
// adaptation that prefers dropping bitrate over dropping frames, and the
// three metrics the paper reports — send bitrate, network latency, and
// frame drop rate.
package gaming

import (
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Config describes a gaming session.
type Config struct {
	// MaxBitrateMbps is the adapter's ceiling (Steam's is 100).
	MaxBitrateMbps float64
	// MinBitrateMbps is the floor before the stream gives up quality
	// entirely.
	MinBitrateMbps float64
	// FPS is the target frame rate.
	FPS float64
	// RunDuration is the session length.
	RunDuration time.Duration
}

// DefaultConfig mirrors §E.1: 4K at 60 FPS over Steam Remote Play.
func DefaultConfig() Config {
	return Config{
		MaxBitrateMbps: 100,
		MinBitrateMbps: 1,
		FPS:            60,
		RunDuration:    90 * time.Second,
	}
}

// Result summarizes one session.
type Result struct {
	MedianSendBitrate float64 // Mbps
	MeanNetLatencyMS  float64
	MaxNetLatencyMS   float64
	FrameDropFrac     float64
}

// Session is one cloud-gaming run over a stepped downlink.
type Session struct {
	cfg Config
	rng *simrand.Source

	elapsed time.Duration
	rate    float64 // current send bitrate, Mbps
	est     float64 // smoothed capacity estimate, Mbps

	bitrates  []float64
	latSum    float64
	latMax    float64
	latN      int
	frames    float64
	dropped   float64
	received  unit.Bytes
	sinceStat time.Duration
}

// NewSession starts a run.
func NewSession(cfg Config, rng *simrand.Source) *Session {
	return &Session{cfg: cfg, rng: rng.Fork("gaming"), rate: cfg.MaxBitrateMbps / 2, est: cfg.MaxBitrateMbps / 2}
}

// Done reports whether the session is over.
func (s *Session) Done() bool { return s.elapsed >= s.cfg.RunDuration }

// Step advances the session by dt at the given downlink capacity and
// base RTT.
func (s *Session) Step(dt time.Duration, dl unit.BitRate, baseRTT time.Duration) {
	if s.Done() {
		return
	}
	s.elapsed += dt
	sec := dt.Seconds()
	capMbps := dl.Mbps()

	// Smoothed capacity estimate drives the adapter: quick to back off,
	// slow to ramp — Steam's behaviour of protecting frame rate first.
	if capMbps < s.est {
		s.est += (capMbps - s.est) * min(1, sec*6)
	} else {
		s.est += (capMbps - s.est) * min(1, sec*0.4)
	}
	target := clamp(0.65*s.est, s.cfg.MinBitrateMbps, s.cfg.MaxBitrateMbps)
	s.rate += (target - s.rate) * min(1, sec*3)

	// Stream bytes actually carried this tick.
	carried := s.rate
	if capMbps < carried {
		carried = capMbps
	}
	s.received += unit.BitRate(carried * 1e6).BytesIn(dt)

	// Frame accounting: frames are dropped when the instant capacity
	// cannot carry the stream.
	nFrames := s.cfg.FPS * sec
	s.frames += nFrames
	if capMbps < s.rate {
		shortfall := 1 - capMbps/max(s.rate, 1e-9)
		s.dropped += nFrames * clamp(shortfall, 0, 1)
	}

	// Latency report once per second, like the Steam server log.
	s.sinceStat += dt
	if s.sinceStat >= time.Second {
		s.sinceStat -= time.Second
		lat := unit.Milliseconds(baseRTT)
		// Operating near the capacity edge queues frames.
		util := s.rate / max(capMbps, 1e-9)
		switch {
		case capMbps <= 0:
			lat += 800 + s.rng.Uniform(0, 400)
		case util > 1:
			lat += clamp((util-1)*400, 0, 900) + s.rng.Uniform(0, 80)
		case util > 0.9:
			lat += s.rng.Uniform(3, 25)
		default:
			lat += s.rng.Uniform(0, 8)
		}
		s.latSum += lat
		s.latN++
		if lat > s.latMax {
			s.latMax = lat
		}
		s.bitrates = append(s.bitrates, s.rate)
	}
}

// BytesReceived reports the stream bytes delivered so far.
func (s *Session) BytesReceived() unit.Bytes { return s.received }

// Result computes the session summary.
func (s *Session) Result() Result {
	r := Result{}
	if len(s.bitrates) > 0 {
		r.MedianSendBitrate = median(s.bitrates)
	}
	if s.latN > 0 {
		r.MeanNetLatencyMS = s.latSum / float64(s.latN)
		r.MaxNetLatencyMS = s.latMax
	}
	if s.frames > 0 {
		r.FrameDropFrac = s.dropped / s.frames
	}
	return r
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
