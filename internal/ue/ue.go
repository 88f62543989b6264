// Package ue is the metro-scale crowd engine: a registry of background
// UEs stored struct-of-arrays and sharded by serving cell, advanced by an
// event wheel instead of per-UE polling.
//
// The six-handset campaign ticks every phone every 50 ms; that model is
// exact but costs O(UEs × ticks), which makes city-scale populations —
// 10⁵–10⁶ subscribers sharing the sectors the test phones drive through —
// unaffordable. The registry inverts the loop: a UE consumes work only
// when something happens to it (attach, session open/close, reselection,
// detach, measurement), and every event is scheduled on a tick-indexed
// wheel, so the cost of a quiet crowd is O(events), not O(UEs × ticks).
//
// Two properties the rest of the repository depends on:
//
//   - Positional identity. Every random draw a slot ever makes is a pure
//     function of (Config.Seed, slot index, per-slot draw counter) via a
//     splitmix64 hash — the same derivation idea as fleet.RunSeed's
//     positional seeds, but stateless, because a math/rand stream per
//     slot (~5 KB each) is infeasible at 10⁶ UEs. No slot's sequence
//     depends on any other slot or on scheduling, so crowd state is
//     byte-identical for any worker count.
//   - Deterministic event order. Events due on the same tick are applied
//     in ascending (kind, slot) order — the wheel's ordering contract
//     (see DESIGN.md Appendix D) — so wheel internals can be reorganized
//     freely without changing results.
//
// An event is cheap because everything a UE's events look up is fixed
// once its position is: the technologies deployed there are computed in
// NewRegistry, and the nearest cell of each technology on first use,
// then read from per-slot memos. The wheel files an event as one 8-byte
// key, (kind, slot, generation) packed so that sorting the integers puts
// a tick's events in contract order.
//
// Per-cell aggregate demand (integer units, exact under any summation
// order) is the registry's output surface: it backs the demand-driven
// load model behind ran.LoadBackend.
package ue

import (
	"math"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Config parameterizes one operator lane's crowd.
type Config struct {
	Op    radio.Operator
	Map   *deploy.Map
	Route *geo.Route

	// Size is the number of background UEs (slots), at most MaxSize.
	// Zero is a valid empty crowd: the registry still answers CellLoad
	// with the base load.
	Size int
	// Span bounds drawn positions to [0, Span] along the route; zero
	// means the full route. Campaigns pass their driven limit so the
	// crowd lives where the handsets drive.
	Span unit.Meters
	// Seed roots every slot's positional draw sequence. Campaigns derive
	// it per (master seed, operator) the way fleet.RunSeed derives
	// replicate seeds.
	Seed int64
	// Tick is the simulation step; zero means 50 ms.
	Tick time.Duration
	// HorizonTicks is the campaign length, used to spread measurement
	// slots across the run.
	HorizonTicks int64

	// Dwell-time means of the per-slot session process; zeros take the
	// defaults noted here.
	SessionMean  time.Duration // idle dwell before a session opens (60 s)
	ActiveMean   time.Duration // session length (20 s)
	ReselectMean time.Duration // gap between reselection checks (2 min)
	DetachMean   time.Duration // attached lifetime before detaching (15 min)
	ReattachMean time.Duration // detached dwell before re-attaching (2 min)
	AttachWindow time.Duration // initial attach staggering window (30 s)

	// MeasureSlots designates this many evenly spaced slots as measuring
	// UEs (the speedtest crowd); their measurement start events are spread
	// across the horizon. Clamped to Size.
	MeasureSlots int
	// MeasureTicks is how long one measurement occupies its serving cell.
	MeasureTicks int64
	// MeasureUnits is the demand a running measurement adds to its cell.
	MeasureUnits int32

	// Obs receives the crowd counters and gauges (events, attached UEs,
	// wheel depth, measurements). Write-only and nil-safe, as everywhere.
	Obs *obs.Recorder
}

// MaxSize is the largest crowd a registry holds: the 10⁶-UE design
// scale, rounded up to a power of two. Every slot costs about 60 bytes
// across the slot store plus its pending events, so the bound keeps a
// config from asking for more memory than any host has; it is also far
// inside the 29 bits a slot has in an event key.
const MaxSize = 1 << 20

// Slot lifecycle states.
const (
	stDetached uint8 = iota
	stAttached
)

// Event kinds, in their within-tick processing order. Events due on the
// same tick apply in ascending (kind, slot): attaches first, then
// detaches, reselections, session toggles, and measurement edges.
const (
	evAttach uint8 = iota
	evDetach
	evHandover
	evSession
	evMeasureEnd
	evMeasureStart
)

// cellShard is one cell's slice of the registry: the slots attached to
// the cell and their aggregate demand in integer units. Integer demand
// makes the aggregate exact under any update order.
type cellShard struct {
	demand int64
	slots  []int32
}

// Registry is one operator's crowd. Not safe for concurrent use; each
// campaign lane owns one and advances it on the lane's goroutine.
type Registry struct {
	cfg  Config
	tick int64

	// Struct-of-arrays slot store. pos[i] is slot i's index within its
	// serving shard's slot list (swap-remove bookkeeping).
	odo     []unit.Meters
	tz      []uint8
	state   []uint8
	gen     []uint32
	tech    []uint8
	cell    []int32
	pos     []int32
	session []int32 // demand units of an open session, 0 while idle
	measure []int32 // demand units of a running measurement
	seq     []uint64
	isMeas  []bool

	// Per-slot lookups that depend only on the slot's fixed position and
	// the immutable deploy.Map: the technologies deployed there, and the
	// nearest cell of each technology (slot*NumTechnologies + tech),
	// unknownCell until first asked for.
	avail   []deploy.TechSet
	nearest []int32

	shards [radio.NumTechnologies][]cellShard
	wheel  wheel

	attached  int
	processed int64
	started   int64 // measurements started

	// OnMeasure, when set, is invoked synchronously at each measurement
	// slot's start event with the slot, its position, and the simulation
	// time. The campaign layer hangs the actual speedtest flow simulation
	// here; invocation order is the wheel's deterministic event order.
	OnMeasure func(slot int, odo unit.Meters, now time.Time)

	// Dwell means in ticks.
	sessionT, activeT, reselectT, detachT, reattachT float64
	attachW                                          int64

	rast raster

	// chooser is the reusable policy-randomness adapter: handleAttach and
	// handleHandover set its slot and pass &r.chooser, so the per-event
	// interface conversion carries a pointer instead of boxing a value.
	chooser slotChooser

	obsEvents   *obs.Counter
	obsMeasures *obs.Counter
	obsAttached *obs.Gauge
	obsDepth    *obs.Gauge
}

// Demand-to-load calibration: a cell's load is the base floor plus its
// aggregate demand over the technology's capacity units, clamped to the
// same band the stand-in OU model uses.
const (
	baseLoad = 0.12
	minLoad  = 0.02
	maxLoad  = 0.92
)

// capacityUnits scales demand units into load per technology: wider
// pipes absorb more concurrent sessions before the sector saturates.
func capacityUnits(t radio.Technology) float64 {
	switch t {
	case radio.NRMmWave:
		return 1500
	case radio.NRMid:
		return 1000
	case radio.NRLow:
		return 700
	case radio.LTEA:
		return 500
	default:
		return 400
	}
}

func (c *Config) applyDefaults() {
	if c.Tick <= 0 {
		c.Tick = 50 * time.Millisecond
	}
	if c.SessionMean <= 0 {
		c.SessionMean = 60 * time.Second
	}
	if c.ActiveMean <= 0 {
		c.ActiveMean = 20 * time.Second
	}
	if c.ReselectMean <= 0 {
		c.ReselectMean = 2 * time.Minute
	}
	if c.DetachMean <= 0 {
		c.DetachMean = 15 * time.Minute
	}
	if c.ReattachMean <= 0 {
		c.ReattachMean = 2 * time.Minute
	}
	if c.AttachWindow <= 0 {
		c.AttachWindow = 30 * time.Second
	}
	if c.MeasureSlots > c.Size {
		c.MeasureSlots = c.Size
	}
}

// NewRegistry builds a crowd: draws every slot's position (urban-biased,
// like the speedtest crowd), and schedules the initial attach events
// across the attach window plus the measurement slots across the horizon.
// All the per-UE work — attaching, sessions, reselections — happens
// event-driven during Advance.
func NewRegistry(cfg Config) *Registry {
	cfg.applyDefaults()
	n := cfg.Size
	r := &Registry{
		cfg:     cfg,
		odo:     make([]unit.Meters, n),
		tz:      make([]uint8, n),
		state:   make([]uint8, n),
		gen:     make([]uint32, n),
		tech:    make([]uint8, n),
		cell:    make([]int32, n),
		pos:     make([]int32, n),
		session: make([]int32, n),
		measure: make([]int32, n),
		seq:     make([]uint64, n),
		isMeas:  make([]bool, n),
		avail:   make([]deploy.TechSet, n),
		nearest: make([]int32, n*radio.NumTechnologies),

		sessionT:  ticksOf(cfg.SessionMean, cfg.Tick),
		activeT:   ticksOf(cfg.ActiveMean, cfg.Tick),
		reselectT: ticksOf(cfg.ReselectMean, cfg.Tick),
		detachT:   ticksOf(cfg.DetachMean, cfg.Tick),
		reattachT: ticksOf(cfg.ReattachMean, cfg.Tick),
		attachW:   int64(ticksOf(cfg.AttachWindow, cfg.Tick)),

		obsEvents:   cfg.Obs.Counter("crowd/" + cfg.Op.Short() + "/events"),
		obsMeasures: cfg.Obs.Counter("crowd/" + cfg.Op.Short() + "/measurements"),
		obsAttached: cfg.Obs.Gauge("crowd/" + cfg.Op.Short() + "/attached"),
		obsDepth:    cfg.Obs.Gauge("crowd/" + cfg.Op.Short() + "/wheel_depth"),
	}
	r.chooser.r = r
	r.wheel.init()
	for t := 0; t < radio.NumTechnologies; t++ {
		r.shards[t] = make([]cellShard, cfg.Map.CellCount(radio.Technology(t)))
	}

	span := cfg.Route.Total()
	if cfg.Span > 0 && cfg.Span < span {
		span = cfg.Span
	}
	r.rast = newRaster(cfg.Route, span)
	for i := range r.nearest {
		r.nearest[i] = unknownCell
	}

	for slot := int32(0); slot < int32(n); slot++ {
		r.cell[slot] = -1
		r.odo[slot] = r.drawPosition(slot, span)
		r.tz[slot] = uint8(r.rast.timezone(r.odo[slot]))
		r.avail[slot] = cfg.Map.Available(r.odo[slot])
		r.schedule(evAttach, slot, 1+r.intn(slot, r.attachW))
	}
	r.scheduleMeasurements()
	return r
}

// ticksOf converts a duration to ticks as a float mean (for exponential
// dwell draws), never below one tick.
func ticksOf(d, tick time.Duration) float64 {
	t := float64(d) / float64(tick)
	if t < 1 {
		return 1
	}
	return t
}

// scheduleMeasurements designates evenly spaced slots as measuring UEs
// and spreads their start events across the usable horizon, after the
// attach window. Starts that would not finish before the horizon are
// scheduled anyway and simply never fire — the campaign ends first.
func (r *Registry) scheduleMeasurements() {
	m := r.cfg.MeasureSlots
	if m <= 0 || r.cfg.Size <= 0 {
		return
	}
	stride := int64(r.cfg.Size / m)
	if stride < 1 {
		stride = 1
	}
	gap := int64(1)
	if usable := r.cfg.HorizonTicks - r.attachW - r.cfg.MeasureTicks; usable > int64(m) {
		gap = usable / int64(m)
	}
	for i := int64(0); i < int64(m); i++ {
		slot := int32(i * stride)
		r.isMeas[slot] = true
		r.schedule(evMeasureStart, slot, r.attachW+1+i*gap)
	}
}

// Advance moves the crowd one tick forward and applies every event due,
// in (kind, slot) order. The caller supplies the simulation instant —
// tick→time is not linear (the timeline jumps overnight between trip
// days), so the lane, which walks the timeline, owns the clock.
//
//lint:hotroot — the crowd engine's per-tick entry point
func (r *Registry) Advance(now time.Time) {
	r.tick++
	bucket := r.wheel.take(r.tick)
	for _, k := range bucket {
		kind, slot, gen := unpackKey(k)
		if gen != r.gen[slot] {
			continue // cancelled by a detach after scheduling
		}
		switch kind {
		case evAttach:
			r.handleAttach(slot)
		case evDetach:
			r.handleDetach(slot)
		case evHandover:
			r.handleHandover(slot)
		case evSession:
			r.handleSession(slot)
		case evMeasureStart:
			r.handleMeasureStart(slot, now)
		case evMeasureEnd:
			r.handleMeasureEnd(slot)
		}
	}
	if n := int64(len(bucket)); n > 0 {
		r.processed += n
		r.obsEvents.Add(n)
	}
	r.obsAttached.Set(float64(r.attached))
	r.obsDepth.Set(float64(r.wheel.depth))
	// Every event has been applied; hand the bucket's storage back so the
	// next tick's schedules reuse it instead of allocating.
	r.wheel.recycle(bucket)
}

// CellLoad reports a cell's background load from its shard's aggregate
// demand. This is the demand-driven ran.LoadBackend: the handsets and
// the crowd's own measurement flows read the same aggregates the crowd
// writes. The instant is unused — shard state is tick-synchronous.
func (r *Registry) CellLoad(c *deploy.Cell, _ time.Time) float64 {
	sh := &r.shards[c.Tech][c.Index]
	return unit.Clamp(baseLoad+float64(sh.demand)/capacityUnits(c.Tech), minLoad, maxLoad)
}

// schedule enqueues an event for this slot at the given delay (minimum
// one tick), stamped with the slot's current generation so a later
// detach invalidates it.
func (r *Registry) schedule(kind uint8, slot int32, delay int64) {
	if delay < 1 {
		delay = 1
	}
	r.wheel.schedule(r.tick+delay, eventKey(kind, slot, r.gen[slot]), r.tick)
}

// handleAttach runs the idle elevation policy at the slot's position and
// joins the nearest cell of the chosen technology, falling back to LTE
// (always deployed) when the choice has no site in range. A slot with no
// reachable site at all retries after a reattach dwell.
func (r *Registry) handleAttach(slot int32) {
	if r.state[slot] != stDetached {
		return
	}
	r.chooser.slot = slot
	tech := deploy.ChooseTechWith(r.cfg.Op, r.avail[slot], deploy.Idle, geo.Timezone(r.tz[slot]), &r.chooser)
	ci := r.nearestCell(slot, tech)
	if ci < 0 && tech != radio.LTE {
		tech = radio.LTE
		ci = r.nearestCell(slot, radio.LTE)
	}
	if ci < 0 {
		r.schedule(evAttach, slot, r.expTicks(slot, r.reattachT))
		return
	}
	r.attachSlot(slot, tech, ci)
	r.schedule(evSession, slot, r.expTicks(slot, r.sessionT))
	r.schedule(evHandover, slot, r.expTicks(slot, r.reselectT))
	if !r.isMeas[slot] {
		// Measuring slots stay attached for the whole campaign so a
		// detach can never race their measurement window.
		r.schedule(evDetach, slot, r.expTicks(slot, r.detachT))
	}
}

// handleDetach removes the slot from its shard and bumps its generation,
// cancelling every event still in flight for it, then schedules the
// re-attach that keeps the population stationary.
func (r *Registry) handleDetach(slot int32) {
	if r.state[slot] != stAttached {
		return
	}
	r.detachSlot(slot)
	r.gen[slot]++
	r.schedule(evAttach, slot, r.expTicks(slot, r.reattachT))
}

// handleHandover re-runs the elevation policy — active slots count as
// heavy-downlink traffic, which is what pulls the loaded part of the
// crowd onto 5G — and moves the slot if a different (tech, cell) wins.
func (r *Registry) handleHandover(slot int32) {
	if r.state[slot] != stAttached {
		return
	}
	traffic := deploy.Idle
	if r.session[slot] > 0 || r.measure[slot] > 0 {
		traffic = deploy.HeavyDL
	}
	r.chooser.slot = slot
	tech := deploy.ChooseTechWith(r.cfg.Op, r.avail[slot], traffic, geo.Timezone(r.tz[slot]), &r.chooser)
	ci := r.nearestCell(slot, tech)
	if ci < 0 && tech != radio.LTE {
		tech = radio.LTE
		ci = r.nearestCell(slot, radio.LTE)
	}
	if ci >= 0 && (uint8(tech) != r.tech[slot] || ci != r.cell[slot]) {
		r.moveSlot(slot, tech, ci)
	}
	r.schedule(evHandover, slot, r.expTicks(slot, r.reselectT))
}

// handleSession toggles the slot between idle and active, moving its
// session demand in or out of the serving shard.
func (r *Registry) handleSession(slot int32) {
	if r.state[slot] != stAttached {
		return
	}
	var next int64
	if r.session[slot] == 0 {
		u := int32(4 + r.intn(slot, 25)) // 4..28 demand units per session
		r.session[slot] = u
		r.addDemand(slot, u)
		next = r.expTicks(slot, r.activeT)
	} else {
		r.addDemand(slot, -r.session[slot])
		r.session[slot] = 0
		next = r.expTicks(slot, r.sessionT)
	}
	r.schedule(evSession, slot, next)
}

// handleMeasureStart fires the measurement callback and then parks the
// measurement's demand on the serving cell until the end event. The
// demand lands after the callback so a measurement never counts its own
// flow as background load; concurrent measurements still see each other
// because their start events differ in time.
func (r *Registry) handleMeasureStart(slot int32, now time.Time) {
	r.started++
	r.obsMeasures.Add(1)
	if r.OnMeasure != nil {
		r.OnMeasure(int(slot), r.odo[slot], now)
	}
	if r.state[slot] == stAttached && r.cfg.MeasureUnits > 0 {
		r.measure[slot] = r.cfg.MeasureUnits
		r.addDemand(slot, r.cfg.MeasureUnits)
		r.schedule(evMeasureEnd, slot, r.cfg.MeasureTicks)
	}
}

// handleMeasureEnd releases the measurement's demand.
func (r *Registry) handleMeasureEnd(slot int32) {
	if r.measure[slot] > 0 {
		r.addDemand(slot, -r.measure[slot])
		r.measure[slot] = 0
	}
}

// attachSlot joins a shard. The slot must be detached and carry no
// demand.
func (r *Registry) attachSlot(slot int32, tech radio.Technology, ci int32) {
	sh := &r.shards[tech][ci]
	r.state[slot] = stAttached
	r.tech[slot] = uint8(tech)
	r.cell[slot] = ci
	r.pos[slot] = int32(len(sh.slots))
	sh.slots = append(sh.slots, slot)
	r.attached++
}

// detachSlot releases the slot's demand and swap-removes it from its
// shard.
func (r *Registry) detachSlot(slot int32) {
	if r.session[slot] > 0 {
		r.addDemand(slot, -r.session[slot])
		r.session[slot] = 0
	}
	if r.measure[slot] > 0 {
		r.addDemand(slot, -r.measure[slot])
		r.measure[slot] = 0
	}
	r.removeFromShard(slot)
	r.state[slot] = stDetached
	r.cell[slot] = -1
	r.attached--
}

// moveSlot hands the slot (and its demand) from its current shard to a
// new (tech, cell).
func (r *Registry) moveSlot(slot int32, tech radio.Technology, ci int32) {
	d := int64(r.session[slot] + r.measure[slot])
	r.shards[r.tech[slot]][r.cell[slot]].demand -= d
	r.removeFromShard(slot)
	sh := &r.shards[tech][ci]
	r.tech[slot] = uint8(tech)
	r.cell[slot] = ci
	r.pos[slot] = int32(len(sh.slots))
	sh.slots = append(sh.slots, slot)
	sh.demand += d
}

// removeFromShard swap-removes the slot from its serving shard's slot
// list, fixing the moved slot's position index.
func (r *Registry) removeFromShard(slot int32) {
	sh := &r.shards[r.tech[slot]][r.cell[slot]]
	i := r.pos[slot]
	last := int32(len(sh.slots) - 1)
	moved := sh.slots[last]
	sh.slots[i] = moved
	r.pos[moved] = i
	sh.slots = sh.slots[:last]
}

// addDemand moves the slot's demand delta into its serving shard's
// aggregate.
func (r *Registry) addDemand(slot int32, delta int32) {
	r.shards[r.tech[slot]][r.cell[slot]].demand += int64(delta)
}

// unknownCell marks a nearest-cell memo entry not computed yet; -1 is
// taken by "no site in range".
const unknownCell = -2

// nearestCell picks the closest site of a technology to the slot within
// the usual attachment window, or -1 when none is in range. The answer
// depends only on the slot's fixed position and the immutable map, so it
// is computed once per (slot, technology) and then read from the memo.
func (r *Registry) nearestCell(slot int32, t radio.Technology) int32 {
	m := &r.nearest[int(slot)*radio.NumTechnologies+int(t)]
	if *m != unknownCell {
		return *m
	}
	odo := r.odo[slot]
	window := 3 * radio.Band(t).CellRadius
	lo, hi := r.cfg.Map.CellRange(odo, t, window)
	best, bestIdx := math.Inf(1), -1
	for i := lo; i < hi; i++ {
		if d := float64(r.cfg.Map.CellAt(t, i).Distance(odo)); d < best {
			best, bestIdx = d, i
		}
	}
	*m = int32(bestIdx)
	return *m
}

// drawPosition samples the slot's home position with the same urban bias
// the speedtest crowd uses: crowdsourced users live in cities and towns,
// rarely on the interstate.
func (r *Registry) drawPosition(slot int32, span unit.Meters) unit.Meters {
	for attempt := 0; attempt < 8; attempt++ {
		odo := unit.Meters(r.f64(slot) * float64(span))
		accept := 0.08
		switch r.rast.region(odo) {
		case geo.Urban:
			accept = 1.0
		case geo.Suburban:
			accept = 0.5
		}
		if r.f64(slot) < accept {
			return odo
		}
	}
	return unit.Meters(r.f64(slot) * float64(span))
}

// slotChooser adapts a slot's positional draw stream to the Bool-only
// randomness the elevation policy consumes. The registry holds one and
// passes its address so the deploy.Chooser conversion never boxes.
type slotChooser struct {
	r    *Registry
	slot int32
}

// Bool reports true with probability p, consuming one slot draw.
func (c *slotChooser) Bool(p float64) bool { return c.r.f64(c.slot) < p }
