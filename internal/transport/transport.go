// Package transport simulates the end-to-end transport behaviour the
// paper measures: a single nuttcp-style bulk TCP flow under CUBIC
// congestion control (§5's methodology) riding a time-varying cellular
// link, and the ICMP ping process used for RTT tests.
//
// The TCP model is a fluid approximation stepped at the simulation tick:
// the congestion window grows by CUBIC's cubic function (slow start before
// the first loss), traffic drains through a droptail bottleneck buffer
// sized as a multiple of the bandwidth-delay product — which is what
// inflates driving RTTs to the multi-second maxima the paper reports —
// and losses come from buffer overflow plus a residual link-layer loss
// floor. Handovers and deep fades show up as capacity collapses that the
// window needs several RTTs to recover from; that recovery sluggishness
// is a large part of why measured driving throughput sits so far below
// link capacity.
package transport

import (
	"math"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// MSS is the TCP maximum segment size in bytes.
const MSS = 1448

// MaxRTT caps every reported round-trip time, flow and pinger alike, at
// the paper's observed 3 s driving maxima: beyond that real stacks time
// out rather than report ever-larger RTTs.
const MaxRTT = 3 * time.Second

// CUBIC constants (RFC 8312).
const (
	cubicC    = 0.4 // scaling constant, MSS/s³
	cubicBeta = 0.7 // multiplicative decrease factor
)

// Options tunes the path model. The zero value takes defaults.
type Options struct {
	// BufferBDPs sizes the droptail bottleneck buffer as a multiple of
	// the bandwidth-delay product. Cellular bottlenecks are famously
	// overbuffered; the default of 6 produces the paper's multi-second
	// driving RTT tails. The bufferbloat ablation bench sweeps this.
	BufferBDPs float64
	// MinBuffer is the buffer floor in bytes.
	MinBuffer float64
}

func (o *Options) applyDefaults() {
	if o.BufferBDPs <= 0 {
		o.BufferBDPs = 6.0
	}
	if o.MinBuffer <= 0 {
		o.MinBuffer = 96 * 1024
	}
}

// Flow is one bulk TCP transfer.
type Flow struct {
	rng  *simrand.Source
	opts Options

	cwnd     float64 // bytes
	ssthresh float64 // bytes
	wmax     float64 // bytes at last loss
	epoch    float64 // seconds since last loss
	queue    float64 // bytes in the bottleneck buffer

	lastRTT time.Duration
}

// NewFlow starts a flow in slow start with the standard 10-MSS initial
// window and default path options.
func NewFlow(rng *simrand.Source) *Flow {
	return NewFlowOptions(rng, Options{})
}

// NewFlowOptions starts a flow with explicit path options.
func NewFlowOptions(rng *simrand.Source, opts Options) *Flow {
	opts.applyDefaults()
	return &Flow{
		rng:      rng.Fork("tcp"),
		opts:     opts,
		cwnd:     10 * MSS,
		ssthresh: math.Inf(1),
		lastRTT:  50 * time.Millisecond,
	}
}

// StepResult reports what one tick of the flow produced.
type StepResult struct {
	// Delivered is the application-layer bytes that arrived this tick.
	Delivered unit.Bytes
	// RTT is the smoothed round-trip time including queueing delay.
	RTT time.Duration
	// Lost reports whether a loss event (backoff) happened this tick.
	Lost bool
}

// Step advances the flow by dt over a link with the given instantaneous
// capacity and base (unloaded) RTT. A capacity of zero models a handover
// or outage: nothing drains, and the queue holds.
func (f *Flow) Step(dt time.Duration, capacity unit.BitRate, baseRTT time.Duration, extraLoss float64) StepResult {
	seconds := dt.Seconds()
	capBps := float64(capacity) / 8 // bytes per second

	// Queueing delay rides on top of the base RTT.
	rtt := baseRTT
	if capBps > 0 {
		rtt += time.Duration(f.queue / capBps * float64(time.Second))
	} else if f.queue > 0 {
		// Outage: the queue is stuck; report inflated RTT against the
		// last known service rate. Capped: lastRTT feeds back into rtt
		// (and rtt into lastRTT below), so without a ceiling a
		// multi-second zero-capacity window doubles the reported RTT
		// every tick without bound. MaxRTT matches the pinger's 3 s
		// ceiling — the largest RTT any instrument in the testbed reports.
		rtt += f.lastRTT
	}
	if rtt < time.Millisecond {
		rtt = time.Millisecond
	}
	if rtt > MaxRTT {
		rtt = MaxRTT
	}
	f.lastRTT = rtt

	// Fluid arrival and service.
	arrival := f.cwnd / rtt.Seconds() * seconds
	inflow := arrival + f.queue
	service := capBps * seconds
	out := math.Min(inflow, service)
	f.queue = inflow - out

	res := StepResult{Delivered: unit.Bytes(out), RTT: rtt}

	// Droptail overflow.
	buffer := math.Max(f.opts.BufferBDPs*capBps*baseRTT.Seconds(), f.opts.MinBuffer)
	lost := false
	if f.queue > buffer {
		f.queue = buffer
		lost = true
	}
	// Residual link loss that HARQ did not repair. The event rate is per
	// wall-clock second (link-layer loss is a property of the radio, not
	// of the flow's round-trip time): a per-RTT rate would starve
	// short-RTT, high-bandwidth paths, whose CUBIC recovery is wall-clock.
	if !lost && capBps > 0 {
		perSec := 0.02 + 0.55*unit.Clamp(extraLoss, 0, 1)
		if f.rng.Bool(perSec * seconds) {
			lost = true
		}
	}

	if lost {
		f.wmax = f.cwnd
		f.cwnd = math.Max(2*MSS, f.cwnd*cubicBeta)
		f.ssthresh = f.cwnd
		f.epoch = 0
		res.Lost = true
		return res
	}

	// Window growth.
	if f.cwnd < f.ssthresh {
		// Slow start: double per RTT.
		f.cwnd += f.cwnd * seconds / rtt.Seconds()
		if f.cwnd > f.ssthresh {
			f.cwnd = f.ssthresh
		}
	} else {
		f.epoch += seconds
		// RFC 8312's TCP-friendly region, simplified: growth never falls
		// below Reno's one MSS per RTT, which is what rescues tiny
		// windows after an early loss (pure cubic growth from a small
		// Wmax is glacial).
		reno := f.cwnd + MSS*seconds/rtt.Seconds()
		f.cwnd = math.Max(f.cubicWindow(), reno)
	}
	// The window never grows far past what the path can use; cap at
	// buffer + BDP to keep the fluid model stable.
	if capBps > 0 {
		bdp := capBps * baseRTT.Seconds()
		limit := math.Max(bdp+buffer, 4*MSS)
		if f.cwnd > limit {
			f.cwnd = limit
		}
	}
	if f.cwnd < 2*MSS {
		f.cwnd = 2 * MSS
	}
	return res
}

// cubicWindow evaluates W(t) = C(t−K)³ + Wmax in bytes.
func (f *Flow) cubicWindow() float64 {
	wmaxMSS := f.wmax / MSS
	if wmaxMSS < 1 {
		wmaxMSS = 1
	}
	k := math.Cbrt(wmaxMSS * (1 - cubicBeta) / cubicC)
	t := f.epoch - k
	w := cubicC*t*t*t + wmaxMSS
	grown := w * MSS
	if grown < f.cwnd {
		// CUBIC never shrinks the window during avoidance.
		return f.cwnd
	}
	return grown
}

// Pinger is the ICMP RTT test process: one 38-byte echo every 200 ms
// (§3's handover-logger traffic and §5's RTT tests).
type Pinger struct {
	rng      *simrand.Source
	interval time.Duration
	since    time.Duration
	// buf backs Step's result between calls so the per-tick path does not
	// grow a fresh slice; see Step's aliasing note.
	buf []PingSample
}

// PingInterval is the paper's probing interval.
const PingInterval = 200 * time.Millisecond

// NewPinger returns a pinger on the paper's 200 ms schedule.
func NewPinger(rng *simrand.Source) *Pinger {
	return &Pinger{rng: rng.Fork("ping"), interval: PingInterval}
}

// PingSample is one echo result.
type PingSample struct {
	RTT  time.Duration
	Lost bool
}

// Step advances the pinger by dt and returns any samples due in that
// window. capacity and baseRTT describe the link at this instant;
// inHandover marks the handover execution window, during which echoes are
// delayed by the remaining interruption or lost.
//
// The returned slice aliases an internal buffer and is only valid until
// the next Step call; callers consume it immediately (the phone folds
// samples into its RTT series on the spot).
func (p *Pinger) Step(dt time.Duration, capacity unit.BitRate, baseRTT time.Duration, load float64, inHandover bool) []PingSample {
	p.since += dt
	p.buf = p.buf[:0]
	for p.since >= p.interval {
		p.since -= p.interval
		p.buf = append(p.buf, p.sample(capacity, baseRTT, load, inHandover))
	}
	return p.buf
}

func (p *Pinger) sample(capacity unit.BitRate, baseRTT time.Duration, load float64, inHandover bool) PingSample {
	if inHandover {
		if p.rng.Bool(0.3) {
			return PingSample{Lost: true}
		}
		return PingSample{RTT: baseRTT + unit.DurationFromMS(p.rng.Uniform(30, 120))}
	}
	rtt := float64(baseRTT) / float64(time.Millisecond)
	// Scheduling delay grows with cell load.
	rtt += p.rng.Uniform(0, 28) * (0.4 + load)
	// Jitter floor.
	rtt += p.rng.LogNormalMedian(6, 0.8)
	switch {
	case capacity <= 0:
		return PingSample{Lost: true}
	case capacity < 2*unit.Mbps:
		// Deep fade: heavy retransmission delay, sometimes seconds —
		// the source of the paper's 2–3 s driving RTT maxima.
		rtt += p.rng.LogNormalMedian(250, 1.0)
		if p.rng.Bool(0.15) {
			return PingSample{Lost: true}
		}
	case capacity < 20*unit.Mbps:
		if p.rng.Bool(0.25) {
			rtt += p.rng.LogNormalMedian(40, 0.8)
		}
	}
	if ceil := unit.Milliseconds(MaxRTT); rtt > ceil {
		rtt = ceil
	}
	return PingSample{RTT: unit.DurationFromMS(rtt)}
}
