package deploy

import (
	"math"
	"testing"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

func testMaps(t *testing.T) map[radio.Operator]*Map {
	t.Helper()
	route := geo.DefaultRoute()
	rng := simrand.New(7)
	out := map[radio.Operator]*Map{}
	for _, op := range radio.Operators() {
		out[op] = NewMap(op, route, rng)
	}
	return out
}

func TestTechSet(t *testing.T) {
	var s TechSet
	if s.Has(radio.NRMid) {
		t.Error("empty set has midband")
	}
	s = s.With(radio.LTE).With(radio.NRMid)
	if !s.Has(radio.LTE) || !s.Has(radio.NRMid) || s.Has(radio.NRMmWave) {
		t.Errorf("set membership wrong: %b", s)
	}
	if got := s.Best(); got != radio.NRMid {
		t.Errorf("Best = %v", got)
	}
	if got := TechSet(0).Best(); got != radio.LTE {
		t.Errorf("empty Best = %v, want LTE", got)
	}
	techs := s.Techs()
	if len(techs) != 2 || techs[0] != radio.LTE || techs[1] != radio.NRMid {
		t.Errorf("Techs = %v", techs)
	}
}

func TestFragmentLen(t *testing.T) {
	f := Fragment{Start: 100, End: 350}
	if f.Len() != 250 {
		t.Errorf("Len = %v", f.Len())
	}
}

func TestCellDistance(t *testing.T) {
	c := Cell{Odometer: 1000, Lateral: 30}
	if got := c.Distance(1000); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("lateral-only distance = %v", got)
	}
	if got := c.Distance(1040); math.Abs(float64(got)-50) > 1e-9 {
		t.Errorf("3-4-5 distance = %v", got)
	}
}

func TestLTEBlanketsRoute(t *testing.T) {
	maps := testMaps(t)
	for op, m := range maps {
		frags := m.Fragments(radio.LTE)
		if len(frags) != 1 || frags[0].Start != 0 || frags[0].End != geo.DefaultRoute().Total() {
			t.Errorf("%v: LTE fragments = %v", op, frags)
		}
		for odo := unit.Meters(0); odo < geo.DefaultRoute().Total(); odo += 50 * unit.Kilometer {
			if !m.Available(odo).Has(radio.LTE) {
				t.Fatalf("%v: no LTE at %v", op, odo)
			}
		}
	}
}

// servingShares computes the distribution of the best available
// technology over the route — the paper's Fig 2a under heavy DL traffic.
func servingShares(m *Map) map[radio.Technology]float64 {
	counts := map[radio.Technology]int{}
	n := 0
	for odo := unit.Meters(0); odo < geo.DefaultRoute().Total(); odo += unit.Kilometer {
		counts[m.Available(odo).Best()]++
		n++
	}
	out := map[radio.Technology]float64{}
	for k, c := range counts {
		out[k] = float64(c) / float64(n)
	}
	return out
}

func TestCoverageSharesMatchPaper(t *testing.T) {
	maps := testMaps(t)

	share5G := func(s map[radio.Technology]float64) float64 {
		return s[radio.NRLow] + s[radio.NRMid] + s[radio.NRMmWave]
	}
	shareHS := func(s map[radio.Technology]float64) float64 {
		return s[radio.NRMid] + s[radio.NRMmWave]
	}

	tm := servingShares(maps[radio.TMobile])
	if g := share5G(tm); g < 0.55 || g > 0.82 {
		t.Errorf("T-Mobile 5G share = %.2f, want ≈0.68", g)
	}
	if h := shareHS(tm); h < 0.28 || h > 0.50 {
		t.Errorf("T-Mobile high-speed share = %.2f, want ≈0.38", h)
	}

	vz := servingShares(maps[radio.Verizon])
	if g := share5G(vz); g < 0.12 || g > 0.32 {
		t.Errorf("Verizon 5G share = %.2f, want ≈0.20", g)
	}

	at := servingShares(maps[radio.ATT])
	if g := share5G(at); g < 0.12 || g > 0.32 {
		t.Errorf("AT&T 5G share = %.2f, want ≈0.20", g)
	}
	if h := shareHS(at); h > 0.08 {
		t.Errorf("AT&T high-speed share = %.2f, want ≈0.03", h)
	}

	// T-Mobile has by far the widest 5G coverage.
	if share5G(tm) <= share5G(vz) || share5G(tm) <= share5G(at) {
		t.Error("T-Mobile 5G coverage not dominant")
	}
	// Verizon offers the most mmWave.
	if vz[radio.NRMmWave] <= tm[radio.NRMmWave] || vz[radio.NRMmWave] <= at[radio.NRMmWave] {
		t.Errorf("Verizon mmWave %.3f not dominant (T %.3f, A %.3f)",
			vz[radio.NRMmWave], tm[radio.NRMmWave], at[radio.NRMmWave])
	}
	// AT&T has the strongest LTE-A footprint.
	if at[radio.LTEA] <= vz[radio.LTEA] || at[radio.LTEA] <= tm[radio.LTEA] {
		t.Error("AT&T LTE-A share not dominant")
	}
}

func TestCoverageIsFragmented(t *testing.T) {
	maps := testMaps(t)
	// Midband coverage must come in many pieces, not one blanket.
	for op, m := range maps {
		frags := m.Fragments(radio.NRMid)
		if len(frags) < 10 {
			t.Errorf("%v: only %d midband fragments; coverage should be fragmented", op, len(frags))
		}
		for _, f := range frags {
			if f.Len() <= 0 {
				t.Errorf("%v: degenerate fragment %+v", op, f)
			}
		}
	}
}

func TestFragmentsSortedAndDisjoint(t *testing.T) {
	maps := testMaps(t)
	for op, m := range maps {
		for _, tech := range radio.Technologies() {
			frags := m.Fragments(tech)
			for i := 1; i < len(frags); i++ {
				if frags[i].Start < frags[i-1].End {
					t.Errorf("%v/%v: overlapping fragments %v, %v", op, tech, frags[i-1], frags[i])
				}
			}
		}
	}
}

func TestTMobileMidbandStrongestInPacific(t *testing.T) {
	m := testMaps(t)[radio.TMobile]
	route := geo.DefaultRoute()
	counts := map[geo.Timezone][2]int{} // [midband, total]
	for odo := unit.Meters(0); odo < route.Total(); odo += unit.Kilometer {
		z := route.At(odo).Timezone
		c := counts[z]
		c[1]++
		if m.Available(odo).Has(radio.NRMid) {
			c[0]++
		}
		counts[z] = c
	}
	frac := func(z geo.Timezone) float64 {
		c := counts[z]
		return float64(c[0]) / float64(c[1])
	}
	if frac(geo.Pacific) <= frac(geo.Mountain) || frac(geo.Pacific) <= frac(geo.Central) || frac(geo.Pacific) <= frac(geo.Eastern) {
		t.Errorf("T-Mobile midband by tz: P=%.2f M=%.2f C=%.2f E=%.2f; Pacific should lead",
			frac(geo.Pacific), frac(geo.Mountain), frac(geo.Central), frac(geo.Eastern))
	}
}

func TestMmWaveIsUrban(t *testing.T) {
	maps := testMaps(t)
	route := geo.DefaultRoute()
	for op, m := range maps {
		urban, other := 0, 0
		for _, f := range m.Fragments(radio.NRMmWave) {
			mid := (f.Start + f.End) / 2
			if route.At(mid).Region == geo.Urban {
				urban++
			} else {
				other++
			}
		}
		if urban == 0 {
			t.Errorf("%v: no urban mmWave fragments", op)
		}
		if other > urban {
			t.Errorf("%v: mmWave mostly outside cities (%d urban vs %d other)", op, urban, other)
		}
	}
}

func TestCellCountsMatchTable1Scale(t *testing.T) {
	maps := testMaps(t)
	// Table 1: 3020 (V), 4038 (T), 3150 (A) unique cells connected. Site
	// counts should be of that order of magnitude.
	for op, m := range maps {
		n := m.TotalCells()
		if n < 800 || n > 9000 {
			t.Errorf("%v: %d cells; implausible scale", op, n)
		}
	}
	if maps[radio.TMobile].TotalCells() <= maps[radio.Verizon].TotalCells() {
		t.Log("note: T-Mobile usually has most cells (wider 5G); not fatal")
	}
}

func TestCellsSortedWithSaneFields(t *testing.T) {
	maps := testMaps(t)
	seen := map[string]bool{}
	for op, m := range maps {
		for _, tech := range radio.Technologies() {
			cells := m.Cells(tech)
			for i, c := range cells {
				if i > 0 && c.Odometer < cells[i-1].Odometer {
					t.Fatalf("%v/%v: cells unsorted at %d", op, tech, i)
				}
				if c.LoadMean < 0 || c.LoadMean > 0.9 {
					t.Errorf("cell %s load %v", c.ID, c.LoadMean)
				}
				if c.Lateral <= 0 {
					t.Errorf("cell %s lateral %v", c.ID, c.Lateral)
				}
				if seen[c.ID] {
					t.Errorf("duplicate cell ID %s", c.ID)
				}
				seen[c.ID] = true
				if c.Op != op || c.Tech != tech {
					t.Errorf("cell %s mislabeled: %v/%v", c.ID, c.Op, c.Tech)
				}
			}
		}
	}
}

func TestCellsNearWindow(t *testing.T) {
	m := testMaps(t)[radio.Verizon]
	cells := m.Cells(radio.LTE)
	if len(cells) == 0 {
		t.Fatal("no LTE cells")
	}
	mid := cells[len(cells)/2].Odometer
	idx := m.CellsNear(mid, radio.LTE, 30*unit.Kilometer)
	if len(idx) == 0 {
		t.Fatal("no cells near a cell position")
	}
	for _, i := range idx {
		c := m.CellAt(radio.LTE, i)
		d := c.Odometer - mid
		if d < -30*unit.Kilometer || d > 30*unit.Kilometer {
			t.Errorf("cell %s outside window: %v", c.ID, d)
		}
	}
}

func TestMapDeterministic(t *testing.T) {
	route := geo.DefaultRoute()
	a := NewMap(radio.TMobile, route, simrand.New(5))
	b := NewMap(radio.TMobile, route, simrand.New(5))
	if a.TotalCells() != b.TotalCells() {
		t.Fatalf("cell counts differ: %d vs %d", a.TotalCells(), b.TotalCells())
	}
	fa, fb := a.Fragments(radio.NRMid), b.Fragments(radio.NRMid)
	if len(fa) != len(fb) {
		t.Fatalf("fragment counts differ")
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fragment %d differs", i)
		}
	}
}

func TestAvailableConsistentWithFragments(t *testing.T) {
	m := testMaps(t)[radio.ATT]
	for _, f := range m.Fragments(radio.NRLow) {
		mid := (f.Start + f.End) / 2
		if !m.Available(mid).Has(radio.NRLow) {
			t.Fatalf("fragment midpoint %v not available", mid)
		}
	}
}

// availableRef is Available by definition: LTE plus every technology
// with a fragment containing odo, by a linear scan.
func availableRef(m *Map, odo unit.Meters) TechSet {
	s := TechSet(0).With(radio.LTE)
	for _, t := range radio.Technologies() {
		for _, f := range m.fragments[t] {
			if f.Start <= odo && odo < f.End {
				s = s.With(t)
			}
		}
	}
	return s
}

// TestAvailableSpanMatchesAvailable checks that the set AvailableSpan
// reports is the fragments' and that it holds over the whole reported
// interval: a 1 m sweep of the route that re-queries only on leaving the
// current interval (the way a UE caches it), and every fragment edge
// ± 1 ulp of every technology.
func TestAvailableSpanMatchesAvailable(t *testing.T) {
	maps := testMaps(t)
	for _, op := range radio.Operators() {
		m := maps[op]
		checkSpan := func(odo unit.Meters) (TechSet, unit.Meters, unit.Meters) {
			t.Helper()
			s, lo, hi := m.AvailableSpan(odo)
			if !(lo <= odo && odo < hi) {
				t.Fatalf("%v: AvailableSpan(%v) = [%v, %v), odometer outside", op, odo, lo, hi)
			}
			if want := availableRef(m, odo); s != want {
				t.Fatalf("%v: AvailableSpan(%v) set %b, fragments say %b", op, odo, s, want)
			}
			ends := []unit.Meters{lo, unit.Meters(math.Nextafter(float64(hi), math.Inf(-1)))}
			for _, e := range ends {
				if !math.IsInf(float64(e), 0) && availableRef(m, e) != s {
					t.Fatalf("%v: span [%v, %v) of %v: fragments at %v say %b, want %b", op, lo, hi, odo, e, availableRef(m, e), s)
				}
			}
			return s, lo, hi
		}

		spans := 0
		s, lo, hi := checkSpan(0)
		for odo := unit.Meters(0); odo <= m.route.Total()+10; odo++ {
			if odo < lo || odo >= hi {
				s, lo, hi = checkSpan(odo)
				spans++
			}
			if got := m.Available(odo); got != s {
				t.Fatalf("%v: odometer %v inside cached span [%v, %v): Available %b, span set %b", op, odo, lo, hi, got, s)
			}
		}
		edges := 0
		for _, tech := range radio.Technologies() {
			for _, f := range m.fragments[tech] {
				for _, e := range []unit.Meters{f.Start, f.End} {
					x := float64(e)
					for _, odo := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
						checkSpan(unit.Meters(odo))
						edges++
					}
				}
			}
		}
		if spans < 100 {
			t.Errorf("%v: sweep crossed only %d spans", op, spans)
		}
		t.Logf("%v: %d spans swept, %d edge probes", op, spans, edges)
	}
}
