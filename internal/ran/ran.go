// Package ran simulates the radio access network as seen by one UE: which
// cell of which technology serves it at every instant, the A3-style
// handovers between cells and across technologies, per-cell background
// load, fast-fading bursts, and the resulting instantaneous link capacity
// in both directions.
//
// The UE is the meeting point of three substrates: deploy (what is built
// where, and the elevation policy), radio (propagation and capacity
// physics), and geo (where the vehicle is and how fast it moves). The
// transport and application layers consume the per-tick LinkState this
// package produces; the XCAL recorder samples it at 500 ms.
package ran

import (
	"math"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// HandoverKind classifies a handover by the technology transition, the
// split Fig 12 analyses.
type HandoverKind int

// Handover kinds.
const (
	Horizontal4G HandoverKind = iota // 4G -> 4G
	Horizontal5G                     // 5G -> 5G
	Up                               // 4G -> 5G
	Down                             // 5G -> 4G
)

// String implements fmt.Stringer using the paper's arrow labels.
func (k HandoverKind) String() string {
	switch k {
	case Horizontal4G:
		return "4G->4G"
	case Horizontal5G:
		return "5G->5G"
	case Up:
		return "4G->5G"
	default:
		return "5G->4G"
	}
}

// KindOf classifies a technology transition.
func KindOf(from, to radio.Technology) HandoverKind {
	switch {
	case !from.Is5G() && !to.Is5G():
		return Horizontal4G
	case from.Is5G() && to.Is5G():
		return Horizontal5G
	case !from.Is5G():
		return Up
	default:
		return Down
	}
}

// HandoverEvent records one handover.
type HandoverEvent struct {
	Start    time.Time
	Duration time.Duration
	FromTech radio.Technology
	ToTech   radio.Technology
	FromCell string
	ToCell   string
	Odometer unit.Meters
}

// LinkState is the per-tick observable state of the UE's serving link —
// exactly the KPI surface XCAL Solo taps (§3).
type LinkState struct {
	Time       time.Time
	Tech       radio.Technology
	CellID     string
	RSRP       unit.DBm
	SINR       unit.DB
	MCS        int
	BLER       float64
	CCDL       int
	CCUL       int
	Load       float64
	CapacityDL unit.BitRate
	CapacityUL unit.BitRate
	InHandover bool
}

// Capacity reports the state's capacity in the given direction.
func (s LinkState) Capacity(d radio.Direction) unit.BitRate {
	if d == radio.Uplink {
		return s.CapacityUL
	}
	return s.CapacityDL
}

// CC reports the carrier-aggregation count in the given direction.
func (s LinkState) CC(d radio.Direction) int {
	if d == radio.Uplink {
		return s.CCUL
	}
	return s.CCDL
}

// LoadBackend supplies serving-cell background load from an external
// model. The crowd registry (internal/ue) implements it with per-cell
// aggregate demand; a nil backend keeps the per-UE Ornstein–Uhlenbeck
// stand-in, byte-identical to the historical behavior.
type LoadBackend interface {
	// CellLoad reports the cell's background load in [0, 1) at the given
	// instant.
	CellLoad(c *deploy.Cell, now time.Time) float64
}

// UEConfig configures a simulated phone's RAN attachment.
type UEConfig struct {
	Op  radio.Operator
	Map *deploy.Map
	// ForceBest bypasses the traffic-aware elevation policy and always
	// serves from the best deployed technology — the policy ablation.
	ForceBest bool
	// Load, when non-nil, replaces the per-UE OU load stand-in with an
	// external demand-driven backend.
	Load LoadBackend
}

// Tunables of the attachment model. These are the calibration knobs
// DESIGN.md's ablation benches exercise.
const (
	// hysteresis is the A3 margin a neighbour must clear to trigger a
	// handover.
	hysteresis = 3.0 // dB
	// staticSearch is how far a parked tester roams to find the best
	// base station for a baseline test.
	staticSearch = 12 * unit.Kilometer
	// shadowBucket is the spatial granularity of the shadowing field.
	shadowBucket = 75 * unit.Meter
	// shadowSlotBits sizes the UE's shadowing memo at 2^shadowSlotBits
	// slots, several times the cells a handover scan visits at once.
	shadowSlotBits = 7
	// boundEdgeSlack widens a shadow bucket on both sides, and
	// boundDistSlack pulls its closest approach to a cell in, when the
	// memo bounds the cell's RSRP over the bucket (see bucketBound). Both
	// are many orders of magnitude above the float rounding they absorb.
	boundEdgeSlack = 1 * unit.Meter
	boundDistSlack = 0.01 * unit.Meter
	// caRedrawEvery is how often the network reconfigures carrier
	// aggregation.
	caRedrawEvery = 2 * time.Second
	// fadeMeanGap is the mean time between deep-fade events at highway
	// speed; fades are rarer when slow.
	fadeMeanGap = 8 * time.Second
)

// hoMedian is the per-operator median handover duration in ms,
// calibrated to Fig 11b (V 53, T 76, A 58 for downlink).
func hoMedian(op radio.Operator) float64 {
	switch op {
	case radio.Verizon:
		return 52
	case radio.TMobile:
		return 75
	default:
		return 57
	}
}

// UE is one phone's RAN state machine.
type UE struct {
	cfg UEConfig

	policyRNG *simrand.Source
	caRNG     *simrand.Source
	fadeRNG   *simrand.Source
	hoRNG     *simrand.Source
	loadRNG   *simrand.Source

	traffic   deploy.Traffic
	lastAvail deploy.TechSet
	tech      radio.Technology
	cellIdx   int // index into map cells of s.tech; -1 if unattached
	attached  bool

	// handover execution window
	hoUntil time.Time

	// carrier aggregation state
	ccDL, ccUL int
	caNext     time.Time

	// deep-fade state
	fadeUntil time.Time
	fadeDepth float64 // multiplier on capacity during fade

	// availability cache: Map.Available is avail over [availLo, availHi)
	// (see availAt); the empty zero interval forces the first lookup
	avail            deploy.TechSet
	availLo, availHi unit.Meters

	// per-cell load processes, created lazily; loadProc is loadCell's,
	// the serving cell's on nearly every tick
	loads    map[string]*simrand.OU
	loadCell *deploy.Cell
	loadProc *simrand.OU

	// shadow memoizes shadowing draws (see shadowSlot)
	shadow [1 << shadowSlotBits]shadowEntry

	// quiet certifies that no A3 neighbour of quietCell can fire anywhere
	// in shadow bucket quietBucket (see bucketQuiet); it is recomputed
	// only when the (serving cell, bucket) key changes
	quietCell   *deploy.Cell
	quietBucket int64
	quiet       bool
	// a3Checks counts the moving A3 checks and a3Quiet those the
	// certificate answered, for the coverage test
	a3Checks, a3Quiet int

	// fullScan evaluates every A3 neighbour exactly, ignoring the memo's
	// bounds and the quiet-bucket certificate: the reference the bounded
	// scan is tested against.
	fullScan bool

	handovers  []HandoverEvent
	cellsSeen  map[string]bool
	seenCell   *deploy.Cell // the cell last added to cellsSeen
	state      LinkState
	everTicked bool
	staticMode bool
}

// NewUE attaches a new phone to an operator's network.
func NewUE(cfg UEConfig, rng *simrand.Source) *UE {
	src := rng.Fork("ue/" + cfg.Op.Short())
	return &UE{
		cfg:       cfg,
		policyRNG: src.Fork("policy"),
		caRNG:     src.Fork("ca"),
		fadeRNG:   src.Fork("fade"),
		hoRNG:     src.Fork("ho"),
		loadRNG:   src.Fork("load"),
		traffic:   deploy.Idle,
		tech:      radio.LTE,
		cellIdx:   -1,
		ccDL:      1,
		ccUL:      1,
		loads:     map[string]*simrand.OU{},
		cellsSeen: map[string]bool{},
	}
}

// SetTraffic updates the offered-traffic profile. The serving technology
// is re-evaluated: traffic turning heavy can elevate the UE; traffic
// turning idle keeps the elevated technology with probability
// deploy.StickyRetainProb (the mechanism that puts a few mmWave points on
// the paper's ping plots).
func (u *UE) SetTraffic(tr deploy.Traffic, now time.Time, wp geo.Waypoint) {
	if tr == u.traffic {
		return
	}
	goingIdle := tr == deploy.Idle
	u.traffic = tr
	if goingIdle && u.policyRNG.Bool(deploy.StickyRetainProb) {
		return // retain the elevated technology for now
	}
	u.reselectTech(now, &wp)
}

// reselectTech runs the elevation policy and performs a vertical
// handover if the serving technology changes.
func (u *UE) reselectTech(now time.Time, wp *geo.Waypoint) {
	avail := u.availAt(wp.Odometer)
	u.lastAvail = avail
	chosen := u.choose(avail, wp)
	if chosen == u.tech && u.attached {
		return
	}
	fromTech := u.tech
	fromCell := u.state.CellID
	u.tech = chosen
	u.cellIdx = u.bestCell(wp.Odometer, chosen)
	toCell := u.cellName()
	if u.attached && u.everTicked {
		u.recordHandover(now, fromTech, chosen, fromCell, toCell, wp.Odometer)
	}
	u.attached = true
	u.redrawCA(now)
}

// choose applies the elevation policy, honouring the ForceBest ablation
// and static mode. A parked tester facing the base station with heavy
// traffic always gets the best technology; idle (ICMP) traffic follows
// the normal conservative policy even when static, which is why the
// paper's static AT&T RTT tests ran over LTE (§5.1).
func (u *UE) choose(avail deploy.TechSet, wp *geo.Waypoint) radio.Technology {
	if u.cfg.ForceBest || (u.staticMode && u.traffic != deploy.Idle) {
		return avail.Best()
	}
	return deploy.ChooseTech(u.cfg.Op, avail, u.traffic, wp.Timezone, u.policyRNG)
}

// availAt reports deployed technologies, searching city-wide in static
// mode. Outside it the set comes from Map.AvailableSpan, which also says
// over which odometer interval the set holds, so a moving UE searches the
// coverage fragments only when it leaves that interval.
func (u *UE) availAt(odo unit.Meters) deploy.TechSet {
	if u.staticMode {
		return u.cfg.Map.AvailableWithin(odo, staticSearch)
	}
	if odo < u.availLo || odo >= u.availHi {
		u.avail, u.availLo, u.availHi = u.cfg.Map.AvailableSpan(odo)
	}
	return u.avail
}

// SetStaticMode marks the UE as parked for a baseline test battery: the
// tester positions the phone near the serving site with line of sight
// (§5.1 "facing the BS"), so distance is favourable, shadowing and deep
// fades vanish, and heavy traffic is always served by the best deployed
// technology.
func (u *UE) SetStaticMode(on bool) {
	u.staticMode = on
	if on {
		u.fadeUntil = time.Time{}
	}
}

// bestCell picks the strongest cell of a technology near the position.
// Returns -1 if none is in range (possible for thinly covered techs).
func (u *UE) bestCell(odo unit.Meters, t radio.Technology) int {
	window := searchWindow(t)
	if u.staticMode && window < staticSearch {
		window = staticSearch
	}
	best, bestIdx := math.Inf(-1), -1
	lo, hi := u.cfg.Map.CellRange(odo, t, window)
	for i := lo; i < hi; i++ {
		c := u.cfg.Map.CellAt(t, i)
		r := float64(u.rsrpOf(c, odo))
		if r > best {
			best, bestIdx = r, i
		}
	}
	return bestIdx
}

// rsrpOf computes the RSRP of a cell at a position, with a shadowing
// field that is deterministic in (cell, position bucket) so the same
// stretch of road always fades the same way.
func (u *UE) rsrpOf(c *deploy.Cell, odo unit.Meters) unit.DBm {
	if u.staticMode {
		d := c.Distance(odo)
		if d > 60*unit.Meter {
			d = 60 * unit.Meter
		}
		return radio.RSRP(c.Tech, d, 0, radio.BeamGain(u.cfg.Op, c.Tech))
	}
	bucket := int64(odo / shadowBucket)
	return u.shadowedRSRP(c, c.Distance(odo), u.shadowSlot(c, bucket).draw)
}

// shadowedRSRP is the non-static RSRP of a cell at distance d under a
// shadowing draw.
func (u *UE) shadowedRSRP(c *deploy.Cell, d unit.Meters, draw float64) unit.DBm {
	shadow := unit.DB(draw * radio.Band(c.Tech).ShadowSigma)
	return radio.RSRP(c.Tech, d, shadow, radio.BeamGain(u.cfg.Op, c.Tech))
}

// shadowEntry is one slot of a UE's shadowing memo: the hashNormal draw
// of a (cell, bucket) pair and the RSRP bound bucketBound derives from
// it. A nil cell marks an empty slot.
type shadowEntry struct {
	cell   *deploy.Cell
	bucket int64
	draw   float64
	bound  float64
}

// shadowSlot returns the direct-mapped memo slot of (c, bucket), holding
// hashNormal(c.ID, bucket) and its RSRP bound. The vehicle needs about
// fifty ticks to cross a bucket and every tick's handover scan revisits
// the same neighbour cells, so nearly every lookup is a hit. A miss, or a
// slot taken by another key, recomputes both values: every draw is
// exactly the one hashNormal returns.
func (u *UE) shadowSlot(c *deploy.Cell, bucket int64) *shadowEntry {
	key := uint64(bucket)<<20 ^ uint64(c.Index)<<3 ^ uint64(c.Tech)
	e := &u.shadow[(key*0x9e3779b97f4a7c15)>>(64-shadowSlotBits)]
	if e.cell != c || e.bucket != bucket {
		draw := hashNormal(c.ID, bucket)
		*e = shadowEntry{cell: c, bucket: bucket, draw: draw, bound: u.bucketBound(c, bucket, draw)}
	}
	return e
}

// bucketBound is an upper bound on the non-static rsrpOf(c, odo) over
// every odo of the shadow bucket. The shadowing draw is constant inside
// the bucket and RSRP does not rise with distance, so the RSRP at the
// bucket's closest approach to the cell bounds it. The bucket is widened
// by boundEdgeSlack on each side, because int64(odo / shadowBucket) can
// round an odometer just past an exact edge into it, and the distance is
// pulled in by boundDistSlack, so no rounding in the odometer difference,
// Hypot or Log10 can put an exact value above the bound.
func (u *UE) bucketBound(c *deploy.Cell, bucket int64, draw float64) float64 {
	lo := unit.Meters(bucket)*shadowBucket - boundEdgeSlack
	hi := unit.Meters(bucket+1)*shadowBucket + boundEdgeSlack
	var along unit.Meters
	switch {
	case c.Odometer < lo:
		along = lo - c.Odometer
	case c.Odometer > hi:
		along = c.Odometer - hi
	}
	d := unit.Meters(math.Hypot(float64(along), float64(c.Lateral))) - boundDistSlack
	return float64(u.shadowedRSRP(c, d, draw))
}

// FNV-1a constants, inlined below so the per-tick shadow-fading draw
// costs no allocation (fnv.New64a returns its state behind a hash.Hash64
// interface, and []byte(key) copies the key).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashNormal derives a deterministic standard-normal draw from a key and
// bucket via Box–Muller over two hash-derived uniforms. The hash is
// FNV-1a over the key bytes followed by the bucket's 8 little-endian
// bytes — bit-identical to the hash/fnv version it replaces.
func hashNormal(key string, bucket int64) float64 {
	x := fnvOffset64
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= fnvPrime64
	}
	v := uint64(bucket)
	for i := 0; i < 8; i++ {
		x ^= uint64(byte(v >> (8 * i)))
		x *= fnvPrime64
	}
	// splitmix64 to decorrelate the two uniforms
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	u1 := float64(x>>11) / float64(1<<53)
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u2 := float64(x>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (u *UE) cellName() string {
	if u.cellIdx < 0 {
		return ""
	}
	return u.cfg.Map.CellAt(u.tech, u.cellIdx).ID
}

// recordHandover logs an event and starts the execution window during
// which the link carries no traffic.
func (u *UE) recordHandover(now time.Time, fromTech, toTech radio.Technology, fromCell, toCell string, odo unit.Meters) {
	dur := unit.DurationFromMS(u.hoRNG.LogNormalMedian(hoMedian(u.cfg.Op), 0.35))
	u.handovers = append(u.handovers, HandoverEvent{
		Start: now, Duration: dur,
		FromTech: fromTech, ToTech: toTech,
		FromCell: fromCell, ToCell: toCell,
		Odometer: odo,
	})
	u.hoUntil = now.Add(dur)
}

// redrawCA samples a fresh carrier-aggregation configuration.
func (u *UE) redrawCA(now time.Time) {
	u.ccDL = drawCC(u.cfg.Op, u.tech, radio.Downlink, u.caRNG)
	u.ccUL = drawCC(u.cfg.Op, u.tech, radio.Uplink, u.caRNG)
	u.caNext = now.Add(caRedrawEvery)
}

// drawCC samples the number of aggregated carriers. Verizon rarely
// aggregates uplink carriers; T-Mobile often runs 2 (§5.5's CA analysis).
func drawCC(op radio.Operator, t radio.Technology, d radio.Direction, rng *simrand.Source) int {
	max := radio.Link(op, t, d).MaxCC
	if max <= 1 {
		return 1
	}
	if d == radio.Uplink {
		// Per-operator two-carrier probability; a switch rather than a map
		// literal because CA is redrawn on the per-tick path.
		var p2 float64
		switch op {
		case radio.Verizon:
			p2 = 0.05
		case radio.TMobile:
			p2 = 0.60
		case radio.ATT:
			p2 = 0.30
		}
		if rng.Bool(p2) {
			return 2
		}
		return 1
	}
	// Downlink: favour high aggregation, with a spread. The weights live
	// in a fixed-size stack array — the link table caps MaxCC at 8.
	var wbuf [8]float64
	if max > len(wbuf) {
		max = len(wbuf)
	}
	weights := wbuf[:max]
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	return rng.Pick(weights) + 1
}

// loadOf returns the serving cell's background load: the external
// backend when configured, else the per-UE OU stand-in, stepped. The
// backend check comes before any RNG or map state is touched, so the
// nil-backend path draws exactly the historical sequence.
func (u *UE) loadOf(c *deploy.Cell, now time.Time) float64 {
	if u.cfg.Load != nil {
		return u.cfg.Load.CellLoad(c, now)
	}
	if c != u.loadCell {
		p, ok := u.loads[c.ID]
		if !ok {
			p = &simrand.OU{Mean: c.LoadMean, Revert: 0.003, Sigma: 0.006, Min: 0, Max: 0.92}
			u.loads[c.ID] = p
		}
		u.loadCell, u.loadProc = c, p
	}
	return u.loadProc.Step(u.loadRNG)
}

// seedTargetLoad biases a handover target the UE has not visited yet
// toward a below-average load: mobility load balancing steers UEs to
// less-loaded neighbours, which is part of why post-handover throughput
// usually recovers or improves (§6). With an external backend the load
// is cell state, not per-UE state, so there is nothing to seed.
func (u *UE) seedTargetLoad(c *deploy.Cell) {
	if u.cfg.Load != nil {
		return
	}
	if _, ok := u.loads[c.ID]; ok {
		return
	}
	p := &simrand.OU{Mean: c.LoadMean, Revert: 0.003, Sigma: 0.006, Min: 0, Max: 0.92}
	p.Seed(c.LoadMean * u.loadRNG.Uniform(0.55, 0.95))
	u.loads[c.ID] = p
}

// Step advances the UE by dt at the given vehicle state and returns the
// new link state. It runs the mobility half of the tick (see Move), then
// the link half, so every random stream is drawn in one fixed order.
//
//lint:hotroot — the RAN model's per-tick entry point
func (u *UE) Step(now time.Time, wp geo.Waypoint, speedMPH float64, dt time.Duration) LinkState {
	return *u.step(now, &wp, speedMPH, dt)
}

// StepDrive is Step at a drive state, without the copies: it reads ds in
// place and returns the UE's own link state, which is valid until the
// UE's next step or move. Its speed is ds.Speed.MPH(), as a caller of
// Step would pass it.
//
//lint:hotroot — the campaign lanes' per-tick RAN entry point
func (u *UE) StepDrive(ds *geo.DriveState, dt time.Duration) *LinkState {
	return u.step(ds.Time, &ds.Waypoint, ds.Speed.MPH(), dt)
}

// step is Step writing the link state in place.
func (u *UE) step(now time.Time, wp *geo.Waypoint, speedMPH float64, dt time.Duration) *LinkState {
	servingRSRP, haveRSRP, target := u.move(now, wp)
	if target != nil {
		// Seeded here, not in the A3 check, so Move draws no load.
		u.seedTargetLoad(target)
	}
	u.link(now, wp.Odometer, speedMPH, dt, servingRSRP, haveRSRP)
	return &u.state
}

// Move advances only the mobility half of a tick: coverage reselection,
// the A3 handover check and the handover window. It reports the serving
// technology and cell ID ("" when unattached). A UE that only ever Moves
// draws the same handovers as one that Steps, and skips carrier
// aggregation, fades, load, SINR and capacity. Move updates only the
// Time, Tech, CellID and InHandover of State; the link fields keep their
// last Step's values, zero for a UE that only Moves.
//
//lint:hotroot — the passive logger's per-tick entry point
func (u *UE) Move(now time.Time, wp geo.Waypoint) (radio.Technology, string) {
	u.move(now, &wp)
	st := &u.state
	st.Time, st.Tech, st.CellID, st.InHandover = now, u.tech, u.cellName(), now.Before(u.hoUntil)
	return st.Tech, st.CellID
}

// move is the mobility half of a tick. When the A3 check computed the
// serving cell's RSRP for this tick it reports it with haveRSRP; when a
// horizontal handover fired it reports the target cell.
func (u *UE) move(now time.Time, wp *geo.Waypoint) (servingRSRP unit.DBm, haveRSRP bool, target *deploy.Cell) {
	avail := u.availAt(wp.Odometer)
	if !u.attached || avail != u.lastAvail || (u.cellIdx >= 0 && !avail.Has(u.tech)) {
		u.lastAvail = avail
		u.reselectTechOnCoverageChange(now, wp, avail)
	}

	// Horizontal handover: a neighbour beats the serving cell by the
	// hysteresis margin.
	if u.cellIdx >= 0 && now.After(u.hoUntil) {
		servingRSRP, haveRSRP, target = u.maybeHandover(now, wp)
	}
	if u.cellIdx >= 0 {
		if c := u.cfg.Map.CellAt(u.tech, u.cellIdx); c != u.seenCell {
			u.cellsSeen[c.ID] = true
			u.seenCell = c
		}
	}
	u.everTicked = true
	return servingRSRP, haveRSRP, target
}

// link is the link half of a tick: carrier aggregation, deep fades, and
// the serving cell's load, SINR, MCS, BLER and capacities, written into
// u.state. servingRSRP is this tick's serving RSRP at odometer odo when
// haveRSRP is set.
func (u *UE) link(now time.Time, odo unit.Meters, speedMPH float64, dt time.Duration, servingRSRP unit.DBm, haveRSRP bool) {
	// Carrier aggregation reconfiguration.
	if now.After(u.caNext) {
		u.redrawCA(now)
	}

	// Deep-fade process: underpasses, blockage, terrain. More frequent
	// at speed; suppressed in static mode (the operator parked with line
	// of sight to the serving site).
	if !u.staticMode && now.After(u.fadeUntil) {
		rate := (0.3 + speedMPH/70) / fadeMeanGap.Seconds() // events per second
		if u.fadeRNG.Bool(rate * dt.Seconds()) {
			u.fadeUntil = now.Add(time.Duration(u.fadeRNG.Uniform(3, 14) * float64(time.Second)))
			u.fadeDepth = u.fadeRNG.Uniform(0.005, 0.18)
		}
	}

	// Every field is set, one by one: a composite literal would be built
	// aside and copied in.
	st := &u.state
	st.Time, st.Tech, st.CCDL, st.CCUL = now, u.tech, u.ccDL, u.ccUL
	st.InHandover = false
	if u.cellIdx >= 0 {
		c := u.cfg.Map.CellAt(u.tech, u.cellIdx)
		st.CellID = c.ID
		st.RSRP = servingRSRP
		if !haveRSRP {
			st.RSRP = u.rsrpOf(c, odo)
		}
		st.Load = u.loadOf(c, now)
		st.SINR = radio.SINR(u.tech, st.RSRP, st.Load)
		st.MCS = radio.MCSFromSINR(st.SINR)
		burst := 0.0
		if now.Before(u.fadeUntil) {
			// The capacity collapse of a fade is modeled separately; the
			// BLER the UE reports rises only modestly because HARQ keeps
			// retransmitting through it.
			burst = 0.02
		}
		st.BLER = radio.BLER(speedMPH, burst, u.fadeRNG.Float64())
		st.CapacityDL, st.CapacityUL = radio.Capacities(u.cfg.Op, u.tech, u.ccDL, u.ccUL, st.SINR, st.BLER, st.Load)
		if now.Before(u.fadeUntil) {
			st.CapacityDL = unit.BitRate(float64(st.CapacityDL) * u.fadeDepth)
			st.CapacityUL = unit.BitRate(float64(st.CapacityUL) * u.fadeDepth)
		}
	} else {
		// Out of range of every cell of the serving technology: no
		// capacity until coverage changes.
		st.CellID = ""
		st.Load = 0
		st.CapacityDL, st.CapacityUL = 0, 0
		st.RSRP = -140
		st.SINR = -10
		st.MCS = 0
		st.BLER = 0.6
	}
	if now.Before(u.hoUntil) {
		st.InHandover = true
		st.CapacityDL, st.CapacityUL = 0, 0
	}
}

// reselectTechOnCoverageChange re-runs the policy when the deployed set
// under the UE changes (fragment boundary) or on first attach.
func (u *UE) reselectTechOnCoverageChange(now time.Time, wp *geo.Waypoint, avail deploy.TechSet) {
	chosen := u.choose(avail, wp)
	if chosen == u.tech && u.attached {
		// Same technology still; make sure we are attached to a cell.
		if u.cellIdx < 0 {
			u.cellIdx = u.bestCell(wp.Odometer, u.tech)
		}
		return
	}
	fromTech, fromCell := u.tech, u.state.CellID
	u.tech = chosen
	u.cellIdx = u.bestCell(wp.Odometer, chosen)
	if u.attached && u.everTicked && u.cellIdx >= 0 {
		u.recordHandover(now, fromTech, chosen, fromCell, u.cellName(), wp.Odometer)
	}
	u.attached = true
	u.redrawCA(now)
}

// maybeHandover checks the A3 condition against nearby cells. When no
// handover fires and the serving cell's RSRP was computed it reports it
// with haveRSRP, so Step need not evaluate it again. When a handover
// fires it reports the target cell.
//
// Outside static mode a bucket the quiet-bucket certificate accepts (see
// bucketQuiet) cannot fire for the serving cell, so the check ends before
// any RSRP is computed. Otherwise a neighbour whose memo bound (see
// bucketBound) is at or below the running best cannot pass the strict
// r > best anywhere in the bucket, so its exact RSRP is skipped. Every
// other neighbour is evaluated exactly, in the same index order, so the
// target is the one the exhaustive scan picks.
func (u *UE) maybeHandover(now time.Time, wp *geo.Waypoint) (servingRSRP unit.DBm, haveRSRP bool, target *deploy.Cell) {
	serving := u.cfg.Map.CellAt(u.tech, u.cellIdx)
	bounded := !u.staticMode && !u.fullScan
	bucket := int64(wp.Odometer / shadowBucket)
	if bounded {
		if serving != u.quietCell || bucket != u.quietBucket {
			u.quietCell, u.quietBucket = serving, bucket
			u.quiet = u.bucketQuiet(serving, bucket)
		}
		u.a3Checks++
		if u.quiet {
			u.a3Quiet++
			return 0, false, nil
		}
	}
	servingRSRP = u.rsrpOf(serving, wp.Odometer)
	window := searchWindow(u.tech)
	best, bestIdx := float64(servingRSRP)+hysteresis, -1
	lo, hi := u.cfg.Map.CellRange(wp.Odometer, u.tech, window)
	for i := lo; i < hi; i++ {
		if i == u.cellIdx {
			continue
		}
		c := u.cfg.Map.CellAt(u.tech, i)
		if bounded && u.shadowSlot(c, bucket).bound <= best {
			continue
		}
		if r := float64(u.rsrpOf(c, wp.Odometer)); r > best {
			best, bestIdx = r, i
		}
	}
	if bestIdx < 0 {
		return servingRSRP, true, nil
	}
	fromCell := serving.ID
	u.cellIdx = bestIdx
	target = u.cfg.Map.CellAt(u.tech, bestIdx)
	u.recordHandover(now, u.tech, u.tech, fromCell, target.ID, wp.Odometer)
	return 0, false, target
}

// searchWindow is how far along the route, on either side of the UE,
// cell selection and the A3 check look for cells of technology t.
func searchWindow(t radio.Technology) unit.Meters { return 3 * radio.Band(t).CellRadius }

// bucketQuiet is the quiet-bucket certificate: it reports whether no A3
// neighbour of serving can fire at any non-static odometer of the shadow
// bucket. Its lower bound on the serving cell's RSRP mirrors bucketBound:
// the draw is constant in the bucket and RSRP does not rise with
// distance, so the RSRP at the bucket's farthest approach, widened by
// boundEdgeSlack per side and with the distance pushed out by
// boundDistSlack, is at or below every exact serving RSRP in the bucket.
// The neighbours are every cell of any scan window over the widened
// bucket: CellRange's bounds do not fall as the odometer grows, so they
// are [lo(bucket start), hi(bucket end)). A neighbour's exact RSRP is at
// most its bucketBound; if no bound exceeds the serving floor plus
// hysteresis, no r > best can hold.
func (u *UE) bucketQuiet(serving *deploy.Cell, bucket int64) bool {
	window := searchWindow(serving.Tech)
	lo := unit.Meters(bucket)*shadowBucket - boundEdgeSlack
	hi := unit.Meters(bucket+1)*shadowBucket + boundEdgeSlack
	far := math.Max(math.Abs(float64(lo-serving.Odometer)), math.Abs(float64(hi-serving.Odometer)))
	d := unit.Meters(math.Hypot(far, float64(serving.Lateral))) + boundDistSlack
	floor := float64(u.shadowedRSRP(serving, d, u.shadowSlot(serving, bucket).draw)) + hysteresis
	first, _ := u.cfg.Map.CellRange(lo, serving.Tech, window)
	_, last := u.cfg.Map.CellRange(hi, serving.Tech, window)
	for i := first; i < last; i++ {
		c := u.cfg.Map.CellAt(serving.Tech, i)
		if c != serving && u.shadowSlot(c, bucket).bound > floor {
			return false
		}
	}
	return true
}

// HandoverCount reports the number of handovers so far without copying.
func (u *UE) HandoverCount() int { return len(u.handovers) }

// HandoversFrom returns a view of the events starting at index i. The
// returned slice is borrowed from the UE's internal log: callers must not
// modify it and must not hold it across further Steps.
func (u *UE) HandoversFrom(i int) []HandoverEvent {
	if i < 0 || i > len(u.handovers) {
		return nil
	}
	return u.handovers[i:]
}

// UniqueCells reports how many distinct cells the UE has connected to —
// Table 1's "# of unique cells connected".
func (u *UE) UniqueCells() int { return len(u.cellsSeen) }

// Tech reports the current serving technology.
func (u *UE) Tech() radio.Technology { return u.tech }
