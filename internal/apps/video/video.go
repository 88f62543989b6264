// Package video implements the paper's 360° video streaming application
// (§7.2, §D): a chunk-based client streaming from a Puffer-style media
// server, with the buffer-based BBA adaptation algorithm choosing among
// four quality ladders, and the control-theoretic QoE metric
// QoE_k = B_k − λ·|B_k − B_{k−1}| − μ·T_k with λ=1, μ=100.
package video

import (
	"time"

	"github.com/nuwins/cellwheels/internal/unit"
)

// Config describes a streaming session, per §D.1.
type Config struct {
	// Ladder is the available bitrates in Mbps, ascending.
	Ladder []float64
	// ChunkSeconds is the media duration of one chunk.
	ChunkSeconds float64
	// RunDuration is the playback session length.
	RunDuration time.Duration
	// Lambda and Mu are the QoE weights.
	Lambda float64
	Mu     float64
	// Reservoir and Cushion are BBA's buffer thresholds in seconds: below
	// the reservoir the client picks the lowest rung; above
	// reservoir+cushion, the highest; linear in between.
	Reservoir float64
	Cushion   float64
	// MaxBufferSeconds caps prefetching.
	MaxBufferSeconds float64
}

// DefaultConfig mirrors the paper's setup: 2 s chunks encoded at 100, 50,
// 10, and 5 Mbps, 3-minute sessions.
func DefaultConfig() Config {
	return Config{
		Ladder:           []float64{5, 10, 50, 100},
		ChunkSeconds:     2,
		RunDuration:      3 * time.Minute,
		Lambda:           1,
		Mu:               100,
		Reservoir:        2,
		Cushion:          5,
		MaxBufferSeconds: 8,
	}
}

// bbaPick chooses a ladder rung from the current buffer level.
func (c Config) bbaPick(bufferSec float64) int {
	if bufferSec <= c.Reservoir {
		return 0
	}
	top := len(c.Ladder) - 1
	if bufferSec >= c.Reservoir+c.Cushion {
		return top
	}
	frac := (bufferSec - c.Reservoir) / c.Cushion
	idx := int(frac * float64(len(c.Ladder)))
	if idx > top {
		idx = top
	}
	return idx
}

// Result summarizes one session.
type Result struct {
	AvgQoE       float64
	AvgBitrate   float64 // Mbps of downloaded chunks
	RebufferFrac float64 // stall time / session time
	Chunks       int
	Switches     int
}

// Session is one playback run over a stepped downlink.
type Session struct {
	cfg Config

	elapsed    time.Duration
	buffer     float64 // seconds of media buffered
	rebufferMS float64

	downloading bool
	rung        int
	bytesLeft   unit.Bytes
	chunkStall  float64 // stall seconds attributed to the current chunk

	received unit.Bytes

	prevRate float64
	qoeSum   float64
	rateSum  float64
	chunks   int
	switches int
	started  bool
}

// NewSession starts a playback session.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg}
}

// Done reports whether the session is over.
func (s *Session) Done() bool { return s.elapsed >= s.cfg.RunDuration }

// Step advances playback by dt at the given downlink capacity.
func (s *Session) Step(dt time.Duration, dl unit.BitRate) {
	if s.Done() {
		return
	}
	s.elapsed += dt
	sec := dt.Seconds()

	// Start a chunk download whenever none is in flight and the buffer
	// has room.
	if !s.downloading && s.buffer < s.cfg.MaxBufferSeconds-s.cfg.ChunkSeconds {
		s.rung = s.cfg.bbaPick(s.buffer)
		s.bytesLeft = unit.Bytes(s.cfg.Ladder[s.rung] * 1e6 / 8 * s.cfg.ChunkSeconds)
		s.downloading = true
		s.chunkStall = 0
	}

	if s.downloading {
		got := dl.BytesIn(dt)
		if got > s.bytesLeft {
			got = s.bytesLeft
		}
		s.received += got
		s.bytesLeft -= dl.BytesIn(dt)
		if s.bytesLeft <= 0 {
			s.completeChunk()
		}
	}

	// Playback drains the buffer; an empty buffer is a stall.
	if s.started {
		if s.buffer >= sec {
			s.buffer -= sec
		} else {
			stall := sec - s.buffer
			s.buffer = 0
			s.rebufferMS += stall * 1000
			s.chunkStall += stall
		}
	} else if s.buffer >= 2*s.cfg.ChunkSeconds {
		// Startup: begin playing after two chunks are buffered.
		s.started = true
	}
}

func (s *Session) completeChunk() {
	rate := s.cfg.Ladder[s.rung]
	qoe := rate - s.cfg.Lambda*abs(rate-s.prevRate) - s.cfg.Mu*s.chunkStall
	if s.chunks > 0 && rate != s.prevRate {
		s.switches++
	}
	s.qoeSum += qoe
	s.rateSum += rate
	s.chunks++
	s.prevRate = rate
	s.buffer += s.cfg.ChunkSeconds
	s.downloading = false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BytesReceived reports the media bytes downloaded so far.
func (s *Session) BytesReceived() unit.Bytes { return s.received }

// Result computes the session summary.
func (s *Session) Result() Result {
	r := Result{Chunks: s.chunks, Switches: s.switches}
	if s.chunks > 0 {
		r.AvgQoE = s.qoeSum / float64(s.chunks)
		r.AvgBitrate = s.rateSum / float64(s.chunks)
	} else {
		// A session that never completed a chunk is all stall.
		r.AvgQoE = -s.cfg.Mu
	}
	if s.elapsed > 0 {
		r.RebufferFrac = s.rebufferMS / 1000 / s.elapsed.Seconds()
	}
	return r
}
