package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// groundTruthFiveNum recomputes the five-number summary directly from a
// sorted copy of the cleaned input, using the same linear interpolation
// between order statistics as CDF.Quantile — the independent reference
// the property tests compare FiveNum against.
func groundTruthFiveNum(xs []float64) (median, p25, p75, lo, hi float64) {
	var clean []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	if len(clean) == 0 {
		nan := math.NaN()
		return nan, nan, nan, nan, nan
	}
	sort.Float64s(clean)
	q := func(p float64) float64 {
		pos := p * float64(len(clean)-1)
		i := int(math.Floor(pos))
		j := int(math.Ceil(pos))
		if i == j {
			return clean[i]
		}
		frac := pos - float64(i)
		return clean[i]*(1-frac) + clean[j]*frac
	}
	return q(0.5), q(0.25), q(0.75), clean[0], clean[len(clean)-1]
}

func eqOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFiveNumAgainstSortedGroundTruth is the core property test: for
// arbitrary inputs (including NaNs), FiveNum must agree with the
// sorted-slice reference implementation.
func TestFiveNumAgainstSortedGroundTruth(t *testing.T) {
	prop := func(xs []float64, nanMask []bool) bool {
		// Sprinkle NaNs using the second generated vector as a mask.
		in := append([]float64(nil), xs...)
		for i := range in {
			if i < len(nanMask) && nanMask[i] {
				in[i] = math.NaN()
			}
		}
		med, p25, p75, lo, hi := FiveNum(in)
		wm, w25, w75, wlo, whi := groundTruthFiveNum(in)
		return eqOrBothNaN(med, wm) && eqOrBothNaN(p25, w25) &&
			eqOrBothNaN(p75, w75) && eqOrBothNaN(lo, wlo) && eqOrBothNaN(hi, whi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFiveNumPermutationInvariant pins what the fleet engine leans on:
// fold order cannot show in the summary.
func TestFiveNumPermutationInvariant(t *testing.T) {
	prop := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		m1, a1, b1, l1, h1 := FiveNum(xs)
		m2, a2, b2, l2, h2 := FiveNum(rev)
		return eqOrBothNaN(m1, m2) && eqOrBothNaN(a1, a2) &&
			eqOrBothNaN(b1, b2) && eqOrBothNaN(l1, l2) && eqOrBothNaN(h1, h2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFiveNumOrdering(t *testing.T) {
	prop := func(xs []float64) bool {
		med, p25, p75, lo, hi := FiveNum(xs)
		if math.IsNaN(med) {
			return true
		}
		return lo <= p25 && p25 <= med && med <= p75 && p75 <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFiveNumEmptyAndNaN(t *testing.T) {
	for _, in := range [][]float64{nil, {}, {math.NaN()}, {math.NaN(), math.NaN()}} {
		med, p25, p75, lo, hi := FiveNum(in)
		for _, v := range []float64{med, p25, p75, lo, hi} {
			if !math.IsNaN(v) {
				t.Errorf("FiveNum(%v) produced finite %v, want all NaN", in, v)
			}
		}
	}
	// A single NaN among finite values is dropped, not propagated.
	med, p25, p75, lo, hi := FiveNum([]float64{3, math.NaN(), 1, 2})
	if med != 2 || p25 != 1.5 || p75 != 2.5 || lo != 1 || hi != 3 {
		t.Errorf("FiveNum with one NaN = %v %v %v %v %v", med, p25, p75, lo, hi)
	}
}

func TestFiveNumDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	FiveNum(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestIQROverlap(t *testing.T) {
	cases := []struct {
		aLo, aHi, bLo, bHi float64
		want               bool
	}{
		{0, 1, 2, 3, false},
		{2, 3, 0, 1, false},
		{0, 2, 1, 3, true},
		{0, 1, 1, 2, true},          // touching bounds overlap
		{1, 1, 1, 1, true},          // degenerate equal points
		{0, 1, math.NaN(), 2, true}, // NaN cannot rule out overlap
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), true},
	}
	for _, tc := range cases {
		if got := IQROverlap(tc.aLo, tc.aHi, tc.bLo, tc.bHi); got != tc.want {
			t.Errorf("IQROverlap(%v, %v, %v, %v) = %v, want %v", tc.aLo, tc.aHi, tc.bLo, tc.bHi, got, tc.want)
		}
	}
}

// TestIQROverlapSymmetric: overlap is order-free — swap the ranges and
// the answer holds.
func TestIQROverlapSymmetric(t *testing.T) {
	prop := func(a, b, c, d float64) bool {
		aLo, aHi := math.Min(a, b), math.Max(a, b)
		bLo, bHi := math.Min(c, d), math.Max(c, d)
		return IQROverlap(aLo, aHi, bLo, bHi) == IQROverlap(bLo, bHi, aLo, aHi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
