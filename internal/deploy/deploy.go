// Package deploy models each operator's network build-out along the route
// and the service-elevation policy that decides which available technology
// actually serves a UE.
//
// Coverage of each technology is a fragment process: a two-state Markov
// chain walked along the route whose stationary probability is calibrated,
// per (operator, region, timezone), to the technology shares of Fig 2, and
// whose mean fragment length produces the paper's "highly fragmented"
// coverage. Within covered fragments, discrete cell sites are placed at
// radius-scaled spacing; the RAN layer attaches to and hands over between
// these sites.
//
// The policy layer reproduces the paper's central methodological finding
// (§4.1): what serves a UE depends on offered traffic. Backlogged downlink
// traffic gets the best available technology; uplink traffic is often held
// on low-band or LTE; idle (ICMP-only) UEs are rarely upgraded to 5G at
// all — which is why the passive handover-logger saw almost no 5G.
package deploy

import (
	"math"
	"sort"
	"strconv"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TechSet is a bitmask of available technologies at a point.
type TechSet uint8

// With returns the set with t added.
func (s TechSet) With(t radio.Technology) TechSet { return s | 1<<uint(t) }

// Has reports whether t is in the set.
func (s TechSet) Has(t radio.Technology) bool { return s&(1<<uint(t)) != 0 }

// Best reports the fastest technology in the set. The empty set reports
// LTE, which is always deployed.
func (s TechSet) Best() radio.Technology {
	for t := radio.NRMmWave; t > radio.LTE; t-- {
		if s.Has(t) {
			return t
		}
	}
	return radio.LTE
}

// Techs lists the set's members, oldest first.
func (s TechSet) Techs() []radio.Technology {
	var out []radio.Technology
	for _, t := range radio.Technologies() {
		if s.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// Fragment is one contiguous covered stretch of a technology.
type Fragment struct {
	Tech  radio.Technology
	Start unit.Meters
	End   unit.Meters
}

// Len reports the fragment length.
func (f Fragment) Len() unit.Meters { return f.End - f.Start }

// Cell is one deployed cell site.
type Cell struct {
	ID       string
	Op       radio.Operator
	Tech     radio.Technology
	Index    int         // position in the technology's odometer-ordered slice
	Odometer unit.Meters // along-route position
	Lateral  unit.Meters // perpendicular offset from the road
	LoadMean float64     // long-run background load of the sector
}

// Distance reports the straight-line distance from a route odometer
// position to the cell.
func (c Cell) Distance(odo unit.Meters) unit.Meters {
	along := float64(odo - c.Odometer)
	lat := float64(c.Lateral)
	return unit.Meters(math.Hypot(along, lat))
}

// Map is one operator's deployment along a route.
type Map struct {
	Op        radio.Operator
	route     *geo.Route
	fragments [radio.NumTechnologies][]Fragment
	cells     [radio.NumTechnologies][]Cell
}

// stepSize is the granularity of the coverage walk.
const stepSize = 500 * unit.Meter

// meanFragment is the mean covered-fragment length per technology,
// producing the paper's fragmentation scale.
func meanFragment(t radio.Technology) unit.Meters {
	switch t {
	case radio.NRMmWave:
		return 900 * unit.Meter
	case radio.NRMid:
		return 5 * unit.Kilometer
	case radio.NRLow:
		return 15 * unit.Kilometer
	default: // LTE-A
		return 35 * unit.Kilometer
	}
}

// regionBase is the availability probability of each (operator,
// technology) pair by region, [urban, suburban, highway], before
// timezone scaling. Calibrated to Fig 2a/2d (see DESIGN.md §5). LTE
// blankets the route and has no row: its entries stay zero.
var regionBase = [radio.NumOperators][radio.NumTechnologies][3]float64{
	radio.Verizon: {
		radio.NRMmWave: {0.55, 0.02, 0.002},
		radio.NRMid:    {0.35, 0.15, 0.08},
		radio.NRLow:    {0.30, 0.15, 0.06},
		radio.LTEA:     {0.75, 0.60, 0.55},
	},
	radio.TMobile: {
		radio.NRMmWave: {0.06, 0.005, 0},
		radio.NRMid:    {0.60, 0.45, 0.38},
		radio.NRLow:    {0.70, 0.60, 0.50},
		radio.LTEA:     {0.60, 0.60, 0.60},
	},
	radio.ATT: {
		radio.NRMmWave: {0.12, 0, 0},
		radio.NRMid:    {0.15, 0.04, 0.01},
		radio.NRLow:    {0.35, 0.25, 0.15},
		radio.LTEA:     {0.80, 0.75, 0.72},
	},
}

// tzFactor scales availability by timezone, reproducing Fig 2c's regional
// deployment diversity: T-Mobile's midband strongest in the Pacific,
// AT&T's 5G nearly absent in the Mountain/Central zones, Verizon's 5G
// stronger in the eastern half.
func tzFactor(op radio.Operator, t radio.Technology, z geo.Timezone) float64 {
	if t == radio.LTEA {
		return 1
	}
	switch op {
	case radio.Verizon:
		return [...]float64{0.75, 0.55, 1.25, 1.45}[z]
	case radio.TMobile:
		if t == radio.NRMid {
			return [...]float64{1.5, 0.8, 0.9, 1.0}[z]
		}
		return 1
	default: // AT&T
		return [...]float64{1.4, 0.3, 0.4, 1.5}[z]
	}
}

// availProb is the stationary coverage probability at a point of the
// given region and timezone.
//
//lint:hotroot — the coverage walk's per-step body: 4 technologies × ~11k steps per operator map, 3 maps per campaign
func availProb(op radio.Operator, t radio.Technology, r geo.Region, z geo.Timezone) float64 {
	p := regionBase[op][t][r] * tzFactor(op, t, z)
	return unit.Clamp(p, 0, 0.98)
}

// NewMap generates one operator's deployment over a route.
func NewMap(op radio.Operator, route *geo.Route, rng *simrand.Source) *Map {
	m := &Map{Op: op, route: route}
	src := rng.Fork("deploy/" + op.Short())

	// LTE blankets the route.
	m.fragments[radio.LTE] = []Fragment{{Tech: radio.LTE, Start: 0, End: route.Total()}}

	for _, t := range []radio.Technology{radio.LTEA, radio.NRLow, radio.NRMid, radio.NRMmWave} {
		m.fragments[t] = m.walkCoverage(t, src.Fork("frag/"+t.String()))
	}
	for _, t := range radio.Technologies() {
		m.cells[t] = m.placeCells(t, src.Fork("cells/"+t.String()))
	}
	return m
}

// gridStride is how many route-grid entries one walk step spans: step k
// sits at odometer k·stepSize = (gridStride·k)·GridStep. The walk's
// odometer sums are exact integers, so that grid entry holds exactly the
// region and timezone Route.At reports there.
const gridStride = int(stepSize / geo.GridStep)

// walkCoverage runs the two-state Markov chain along the route.
func (m *Map) walkCoverage(t radio.Technology, src *simrand.Source) []Fragment {
	var frags []Fragment
	covered := false
	var start unit.Meters
	meanCov := float64(meanFragment(t))
	step := float64(stepSize)
	grid := m.route.Grid()

	for i, odo := 0, unit.Meters(0); odo <= m.route.Total(); i, odo = i+gridStride, odo+stepSize {
		p := availProb(m.Op, t, grid.Region(i), grid.Timezone(i))
		var next bool
		if covered {
			// Leave with rate 1/meanCov per meter.
			next = !src.Bool(step / meanCov)
		} else {
			if p <= 0 {
				next = false
			} else if p >= 0.98 {
				next = true
			} else {
				// Enter with the gap rate that yields stationary p.
				meanGap := meanCov * (1 - p) / p
				next = src.Bool(step / meanGap)
			}
		}
		if next && !covered {
			start = odo
		}
		if !next && covered {
			frags = append(frags, Fragment{Tech: t, Start: start, End: odo})
		}
		covered = next
	}
	if covered {
		frags = append(frags, Fragment{Tech: t, Start: start, End: m.route.Total()})
	}
	return frags
}

// cellSpacing is the multiple of cell radius between adjacent sites.
const cellSpacing = 1.35

// placeCells drops cell sites inside each covered fragment.
func (m *Map) placeCells(t radio.Technology, src *simrand.Source) []Cell {
	radius := float64(radio.Band(t).CellRadius)
	var cells []Cell
	// IDs are "<op>-<tech>-<n>", n zero-padded as by %04d, appended with
	// strconv: a fmt.Sprintf per cell was placement's largest cost.
	prefix := m.Op.Short() + "-" + t.String() + "-"
	var id []byte
	n := 0
	for _, f := range m.fragments[t] {
		for pos := float64(f.Start); pos < float64(f.End)+radius; pos += radius * src.Uniform(cellSpacing*0.8, cellSpacing*1.2) {
			lateral := src.Uniform(30, 300)
			if t == radio.NRMmWave {
				lateral = src.Uniform(20, 120)
			}
			wp := m.route.At(unit.Meters(pos))
			id = appendCellNum(append(id[:0], prefix...), n)
			cells = append(cells, Cell{
				ID:       string(id),
				Op:       m.Op,
				Tech:     t,
				Odometer: unit.Meters(pos),
				Lateral:  unit.Meters(lateral),
				LoadMean: loadMean(wp.Region, src),
			})
			n++
		}
	}
	// Fragment overhang (a site just past a fragment's end) can place a
	// cell beyond the next fragment's first site; keep the slice ordered
	// for binary search.
	// Stable sort with an ID tie-breaker: two cells at the same odometer
	// (possible at fragment boundaries) must keep one canonical order.
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Odometer != cells[j].Odometer {
			return cells[i].Odometer < cells[j].Odometer
		}
		return cells[i].ID < cells[j].ID
	})
	// Index is the cell's position in the final ordering — the key the
	// crowd registry's per-cell shards are addressed by.
	for i := range cells {
		cells[i].Index = i
	}
	return cells
}

// appendCellNum appends a non-negative n zero-padded to four digits.
func appendCellNum(b []byte, n int) []byte {
	for d := 1000; d > 1 && n < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// loadMean draws a sector's long-run background load by region. Urban
// sectors carry more subscribers; every sector gets idiosyncratic spread
// so that "full 5G coverage" does not imply good performance (§5.6).
func loadMean(r geo.Region, src *simrand.Source) float64 {
	var base float64
	switch r {
	case geo.Urban:
		base = 0.60
	case geo.Suburban:
		base = 0.58 // sparser provisioning between towns (§5.5)
	default:
		base = 0.52
	}
	return unit.Clamp(src.Normal(base, 0.15), 0.08, 0.90)
}

// Available reports the technology set deployed at an odometer position.
// LTE is always present.
func (m *Map) Available(odo unit.Meters) TechSet {
	s, _, _ := m.AvailableSpan(odo)
	return s
}

// AvailableSpan reports Available(odo) together with a half-open odometer
// interval [lo, hi) containing odo over which Available returns the same
// set, so a caller stepping along the route can skip the fragment
// searches until it leaves the interval. Unbounded sides are ±Inf.
// Binary search over the ordered fragments keeps this O(log fragments):
// it sits on the handsets' per-tick path and on the crowd's attach path.
//
// Per technology, the search index i (the first fragment with End > x)
// is constant for x in [End[i-1], End[i]), and inside that stretch
// membership flips only at Start[i]; the interval is the intersection of
// those stretches.
func (m *Map) AvailableSpan(odo unit.Meters) (s TechSet, lo, hi unit.Meters) {
	s = TechSet(0).With(radio.LTE)
	lo, hi = unit.Meters(math.Inf(-1)), unit.Meters(math.Inf(1))
	for _, t := range []radio.Technology{radio.LTEA, radio.NRLow, radio.NRMid, radio.NRMmWave} {
		frags := m.fragments[t]
		// Inlined sort.Search(len(frags), End > odo): the closure would
		// capture odo and heap-allocate on every per-tick call.
		i, j := 0, len(frags)
		for i < j {
			h := int(uint(i+j) >> 1)
			if frags[h].End > odo {
				j = h
			} else {
				i = h + 1
			}
		}
		if i > 0 {
			lo = max(lo, frags[i-1].End)
		}
		switch {
		case i == len(frags):
			// Past the last fragment: out for good.
		case frags[i].Start <= odo:
			s = s.With(t)
			lo = max(lo, frags[i].Start)
			hi = min(hi, frags[i].End)
		default:
			hi = min(hi, frags[i].Start)
		}
	}
	return s, lo, hi
}

// AvailableWithin reports every technology deployed anywhere inside the
// window around odo. Static baseline tests use this: the testers sought
// out the best base station in the city rather than testing wherever the
// vehicle happened to stop (§5.1).
func (m *Map) AvailableWithin(odo, window unit.Meters) TechSet {
	s := TechSet(0).With(radio.LTE)
	lo, hi := odo-window, odo+window
	for _, t := range []radio.Technology{radio.LTEA, radio.NRLow, radio.NRMid, radio.NRMmWave} {
		for _, f := range m.fragments[t] {
			if f.End < lo {
				continue
			}
			if f.Start > hi {
				break
			}
			s = s.With(t)
			break
		}
	}
	return s
}

// Fragments returns the coverage fragments of a technology.
func (m *Map) Fragments(t radio.Technology) []Fragment {
	return append([]Fragment(nil), m.fragments[t]...)
}

// Cells returns the cell sites of a technology, ordered by odometer.
func (m *Map) Cells(t radio.Technology) []Cell {
	return append([]Cell(nil), m.cells[t]...)
}

// TotalCells reports the operator's total site count across technologies.
func (m *Map) TotalCells() int {
	n := 0
	for _, t := range radio.Technologies() {
		n += len(m.cells[t])
	}
	return n
}

// CellRange reports the half-open index range [lo, hi) of sites of
// technology t within the window around odo, allocation-free.
func (m *Map) CellRange(odo unit.Meters, t radio.Technology, window unit.Meters) (lo, hi int) {
	cells := m.cells[t]
	// Both bounds are inlined sort.Search calls — the closures would
	// capture odo/window/cells and heap-allocate per handover evaluation.
	min, max := odo-window, odo+window
	lo, hi = 0, len(cells)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if cells[h].Odometer >= min {
			hi = h
		} else {
			lo = h + 1
		}
	}
	hi2, n := lo, len(cells)
	for hi2 < n {
		h := int(uint(hi2+n) >> 1)
		if cells[h].Odometer > max {
			n = h
		} else {
			hi2 = h + 1
		}
	}
	return lo, hi2
}

// CellsNear returns indices (into Cells(t)'s ordering) of sites within
// the window around odo.
func (m *Map) CellsNear(odo unit.Meters, t radio.Technology, window unit.Meters) []int {
	lo, hi := m.CellRange(odo, t, window)
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

// CellAt returns a pointer to the i-th cell of technology t. The pointer
// stays valid for the life of the map.
func (m *Map) CellAt(t radio.Technology, i int) *Cell { return &m.cells[t][i] }

// CellCount reports the number of sites of technology t.
func (m *Map) CellCount(t radio.Technology) int { return len(m.cells[t]) }
