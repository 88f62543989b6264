package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Median(); got != 30 {
		t.Errorf("Median = %v, want 30", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("Quantile(1) = %v, want 50", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Errorf("Quantile(0.25) = %v, want 20", got)
	}
	// interpolation between order statistics
	if got := c.Quantile(0.375); got != 25 {
		t.Errorf("Quantile(0.375) = %v, want 25", got)
	}
}

func TestCDFQuantileEmpty(t *testing.T) {
	var c CDF
	if got := c.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("Quantile on empty = %v, want NaN", got)
	}
}

func TestCDFUnsorted(t *testing.T) {
	c := NewCDF([]float64{5, 1, 9, 3})
	if got := c.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := c.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
}

func TestCDFFracBelow(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if got := c.FracBelow(3); got != 0.4 {
		t.Errorf("FracBelow(3) = %v, want 0.4", got)
	}
	if got := c.FracBelow(0); got != 0 {
		t.Errorf("FracBelow(0) = %v, want 0", got)
	}
	if got := c.FracBelow(100); got != 1 {
		t.Errorf("FracBelow(100) = %v, want 1", got)
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	// sample std of 1..5 is sqrt(2.5)
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("Std = %v, want %v", s.Std, math.Sqrt(2.5))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 {
		t.Errorf("Std of single sample = %v, want 0", s.Std)
	}
}

func TestSummaryString(t *testing.T) {
	s, _ := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("String is empty")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, -1, 1, -1}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.5 {
		t.Errorf("r = %v, want near 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("too-few points not rejected")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance not rejected")
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 3 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			// Restrict to magnitudes where the sums of squares cannot
			// overflow; KPI values in this codebase are far smaller still.
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) ||
				math.Abs(p[0]) > 1e100 || math.Abs(p[1]) > 1e100 {
				return true
			}
			xs[i], ys[i] = p[0], p[1]
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinner(t *testing.T) {
	b := SpeedBins()
	cases := []struct {
		x    float64
		want string
	}{
		{0, "0-20 mph"},
		{19.9, "0-20 mph"},
		{20, "20-60 mph"},
		{59.9, "20-60 mph"},
		{60, "60+ mph"},
		{85, "60+ mph"},
	}
	for _, c := range cases {
		if got := b.Labels[b.Index(c.x)]; got != c.want {
			t.Errorf("bin of %v = %q, want %q", c.x, got, c.want)
		}
	}
}

func TestNewBinnerValidation(t *testing.T) {
	if _, err := NewBinner([]float64{1, 2}, []string{"a", "b"}); err == nil {
		t.Error("label count mismatch not rejected")
	}
	if _, err := NewBinner([]float64{2, 1}, []string{"a", "b", "c"}); err == nil {
		t.Error("descending edges not rejected")
	}
}

func TestBinnerIndexTotalProperty(t *testing.T) {
	b := SpeedBins()
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		i := b.Index(x)
		return i >= 0 && i < b.Bins()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sameBits reports whether two summaries agree bit for bit.
func sameBits(a, b Summary) bool {
	fa := []float64{a.Mean, a.Std, a.Min, a.P25, a.Median, a.P75, a.P90, a.Max}
	fb := []float64{b.Mean, b.Std, b.Min, b.P25, b.Median, b.P75, b.P90, b.Max}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.N == b.N
}

// referenceSummarize is Summarize as it was before SummarizeSorted:
// the order statistics of a CDF over a copy, the mean and standard
// deviation summed over xs in order.
func referenceSummarize(xs []float64) Summary {
	c := NewCDF(xs)
	mean := math.NaN()
	if len(xs) > 0 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean = sum / float64(len(xs))
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if len(xs) > 1 {
		std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return Summary{
		N: len(xs), Mean: mean, Std: std, Min: c.Min(),
		P25: c.Quantile(0.25), Median: c.Median(), P75: c.Quantile(0.75), P90: c.Quantile(0.90),
		Max: c.Max(),
	}
}

// TestSummarizeSortedMatchesSummarize pins SummarizeSorted, given the
// values in their original order and as sort.Float64s sorts them,
// OrderStats, fed the sorted values and given MeanStd's moments, and
// Summarize to the reference bit for bit: on random samples with many
// duplicates, one sample, all-equal samples, and samples holding NaN
// and -0.
func TestSummarizeSortedMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]float64{
		"one":       {42.5},
		"all-equal": {3.25, 3.25, 3.25, 3.25, 3.25},
		"nan-zeros": {0, math.Copysign(0, -1), math.NaN(), -1.5, 0, math.NaN(), 2},
	}
	for i := 0; i < 200; i++ {
		xs := make([]float64, 1+rng.Intn(300))
		for j := range xs {
			if rng.Intn(3) == 0 {
				xs[j] = float64(rng.Intn(5)) // duplicates
			} else {
				xs[j] = rng.NormFloat64() * 100
			}
		}
		cases[fmt.Sprintf("random-%d", i)] = xs
	}
	for name, xs := range cases {
		want := referenceSummarize(xs)
		if got, err := Summarize(xs); err != nil || !sameBits(got, want) {
			t.Errorf("%s: Summarize = %+v, %v; want %+v", name, got, err, want)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		kept := append([]float64(nil), sorted...)
		got, err := SummarizeSorted(xs, sorted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameBits(got, want) {
			t.Errorf("%s: SummarizeSorted = %+v, want %+v", name, got, want)
		}
		mean, std := MeanStd(xs)
		if math.Float64bits(mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(std) != math.Float64bits(want.Std) {
			t.Errorf("%s: MeanStd = %v, %v; want %v, %v", name, mean, std, want.Mean, want.Std)
		}
		o := NewOrderStats(len(xs))
		for _, x := range sorted {
			o.Add(x)
		}
		if got, err := o.Summarize(mean, std); err != nil || !sameBits(got, want) {
			t.Errorf("%s: OrderStats.Summarize = %+v, %v; want %+v", name, got, err, want)
		}
		for i := range kept {
			if math.Float64bits(kept[i]) != math.Float64bits(sorted[i]) {
				t.Fatalf("%s: SummarizeSorted modified its sorted input", name)
			}
		}
	}
	if _, err := SummarizeSorted(nil, nil); err != ErrEmpty {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
	empty := NewOrderStats(0)
	if _, err := empty.Summarize(0, 0); err != ErrEmpty {
		t.Errorf("empty OrderStats: err = %v, want ErrEmpty", err)
	}
	short := NewOrderStats(3)
	short.Add(1)
	if _, err := short.Summarize(1, 0); err == nil {
		t.Error("OrderStats summarized 1 of 3 values")
	}
	if _, err := SummarizeSorted([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if mean, std := MeanStd(nil); mean != 0 || std != 0 {
		t.Errorf("MeanStd(nil) = %v, %v, want 0, 0", mean, std)
	}
}
