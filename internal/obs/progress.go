package obs

import (
	"fmt"
	"io"
	"time"
)

// ProgressInfo tells the reporter what "done" looks like and which lanes
// to watch. Lanes are the operator short codes; each lane is expected to
// maintain the counter "lane/<code>/ticks" and the gauge
// "lane/<code>/odometer_km".
type ProgressInfo struct {
	// TotalKm is the planned driven distance. The line's fraction and ETA
	// are the slowest lane's odometer over it.
	TotalKm float64
	// Lanes are the operator short codes being simulated.
	Lanes []string
	// Crowd adds the background-UE figures (attached count, events/s) to
	// the status line, read from the "crowd/<code>/events" counters and
	// "crowd/<code>/attached" gauges.
	Crowd bool
}

// EnableProgress arms the periodic reporter: once armed, StartProgress
// spawns a goroutine printing one status line to w every interval. An
// interval <= 0 defaults to one second. Without this call StartProgress
// is a no-op, so metrics collection and progress printing are
// independently switchable.
func (r *Recorder) EnableProgress(w io.Writer, interval time.Duration) {
	if r == nil || w == nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	r.mu.Lock()
	r.progress = &progressLoop{w: w, interval: interval}
	r.mu.Unlock()
}

// StartProgress begins periodic reporting (if armed via EnableProgress)
// and returns the function that stops it. The loop only reads the
// registry and writes to the configured writer — it can never feed state
// back into the simulation.
func (r *Recorder) StartProgress(info ProgressInfo) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	p := r.progress
	r.mu.Unlock()
	if p == nil || p.running {
		return func() {}
	}
	p.running = true
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.run(r, info)
	return func() {
		close(p.stop)
		<-p.done
		r.mu.Lock()
		p.running = false
		r.mu.Unlock()
	}
}

// progressLoop is the reporter's goroutine state.
type progressLoop struct {
	w        io.Writer
	interval time.Duration
	running  bool
	stop     chan struct{}
	done     chan struct{}
}

func (p *progressLoop) run(r *Recorder, info ProgressInfo) {
	defer close(p.done)
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	begin := time.Now()
	var lastTicks, lastEvents int64
	lastAt := begin
	for {
		select {
		case <-p.stop:
			// One final line so short runs still report something.
			p.report(r, info, begin, &lastTicks, &lastEvents, &lastAt)
			return
		case <-tick.C:
			p.report(r, info, begin, &lastTicks, &lastEvents, &lastAt)
		}
	}
}

// report prints one status line:
//
//	obs: 123.4/500.0 km 24.7% | ticks 250000 | 310k ticks/s | eta 12s
//
// With info.Crowd set the line also carries the background-UE registry's
// attached population and event throughput:
//
//	obs: ... | eta 12s | crowd 99.2k att 1.3M ev/s
func (p *progressLoop) report(r *Recorder, info ProgressInfo, begin time.Time, lastTicks, lastEvents *int64, lastAt *time.Time) {
	now := time.Now()
	// One consistent read of the registry per status line — the same
	// read-only view the manifest and the wheelsd progress endpoint use.
	snap := r.Snapshot()
	minTicks := int64(-1)
	minOdo := 0.0
	var sumTicks, sumEvents int64
	attached := 0.0
	for i, lane := range info.Lanes {
		t := snap.Counters["lane/"+lane+"/ticks"]
		odo := snap.Gauges["lane/"+lane+"/odometer_km"]
		sumTicks += t
		if i == 0 || t < minTicks {
			minTicks = t
		}
		if i == 0 || odo < minOdo {
			minOdo = odo
		}
		if info.Crowd {
			sumEvents += snap.Counters["crowd/"+lane+"/events"]
			attached += snap.Gauges["crowd/"+lane+"/attached"]
		}
	}
	if minTicks < 0 {
		minTicks = 0
	}

	rate := 0.0
	evRate := 0.0
	if dt := now.Sub(*lastAt).Seconds(); dt > 0 {
		rate = float64(sumTicks-*lastTicks) / dt
		evRate = float64(sumEvents-*lastEvents) / dt
	}
	*lastTicks, *lastEvents, *lastAt = sumTicks, sumEvents, now

	// The last tick can carry the odometer a step past the planned
	// distance, so the fraction is capped at done.
	frac := 0.0
	if info.TotalKm > 0 {
		frac = min(minOdo/info.TotalKm, 1)
	}
	eta := "?"
	if frac > 0 && frac < 1 {
		elapsed := now.Sub(begin)
		rem := time.Duration(float64(elapsed)/frac - float64(elapsed))
		eta = rem.Round(time.Second).String()
	} else if frac >= 1 {
		eta = "0s"
	}
	crowd := ""
	if info.Crowd {
		crowd = fmt.Sprintf(" | crowd %s att %s ev/s", fmtRate(attached), fmtRate(evRate))
	}
	fmt.Fprintf(p.w, "obs: %.1f/%.1f km %.1f%% | ticks %d | %s ticks/s | eta %s%s\n",
		minOdo, info.TotalKm, 100*frac, minTicks, fmtRate(rate), eta, crowd)
}

// fmtRate renders a per-second rate compactly (312, 4.1k, 2.3M).
func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
