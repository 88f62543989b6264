// Package stats implements the descriptive statistics the paper's
// evaluation is built from: empirical CDFs and quantiles, Pearson
// correlation (Table 2), mean/standard deviation summaries (Fig 9), and
// value binning (speed bins, technology bins, HT/LT bins).
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned by summaries of empty sample sets.
var ErrEmpty = errors.New("stats: empty sample set")

// CDF is an empirical cumulative distribution over a sample set, built
// from a slice with NewCDF. The zero value is an empty distribution.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF builds a distribution from xs. The input slice is copied.
func NewCDF(xs []float64) *CDF {
	c := &CDF{samples: append([]float64(nil), xs...)}
	return c
}

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile reports the q-th quantile (q in [0, 1]) using linear
// interpolation between order statistics. Quantile(0.5) is the median.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return quantile(len(c.samples), q, func(i int) float64 { return c.samples[i] })
}

// quantile is the q-th quantile of n values, at(i) the i-th smallest:
// linear interpolation between the order statistics around q·(n-1).
func quantile(n int, q float64, at func(i int) float64) float64 {
	if q <= 0 {
		return at(0)
	}
	if q >= 1 {
		return at(n - 1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Median is Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min reports the smallest sample, or NaN if empty.
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.samples[0]
}

// Max reports the largest sample, or NaN if empty.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// FracBelow reports the fraction of samples strictly below x — the form
// the paper uses for statements like "35% of samples are below 5 Mbps".
func (c *CDF) FracBelow(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return float64(sort.SearchFloat64s(c.samples, x)) / float64(len(c.samples))
}

// Summary bundles the descriptive statistics the paper tabulates for a
// sample set.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SummarizeSorted(xs, sorted)
}

// SummarizeSorted is Summarize for a sample set at hand in two orders:
// xs in the order Summarize would be given it, and sorted, the same
// values as sort.Float64s leaves them. The mean and standard deviation
// are summed over xs in its order and the order statistics are read
// from sorted, so the result is Summarize(xs)'s bit for bit, without a
// copy or a sort. sorted is not modified.
func SummarizeSorted(xs, sorted []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	if len(sorted) != len(xs) {
		return Summary{}, fmt.Errorf("stats: %d sorted values for %d samples", len(sorted), len(xs))
	}
	mean, std := MeanStd(xs)
	return summaryOf(len(xs), mean, std, func(i int) float64 { return sorted[i] }), nil
}

// summaryOf is the Summary of n > 0 values with the given mean and
// standard deviation, at(i) the i-th smallest.
func summaryOf(n int, mean, std float64, at func(i int) float64) Summary {
	return Summary{
		N:      n,
		Mean:   mean,
		Std:    std,
		Min:    at(0),
		P25:    quantile(n, 0.25, at),
		Median: quantile(n, 0.5, at),
		P75:    quantile(n, 0.75, at),
		P90:    quantile(n, 0.90, at),
		Max:    at(n - 1),
	}
}

// OrderStats keeps, of n values fed to it in ascending order, only the
// order statistics a Summary reads, so that a sample set whose values
// arrive sorted, and whose mean and standard deviation are summed
// apart, is summarized without being held.
type OrderStats struct {
	n, seen int
	// ranks[:kept] are the ranks summaryOf reads of n values, ascending
	// with repeats, and vals[j] is the value of rank ranks[j] once seen;
	// next is the first j not yet seen.
	ranks      [10]int
	vals       [10]float64
	kept, next int
}

// NewOrderStats is the OrderStats of n values.
func NewOrderStats(n int) OrderStats {
	o := OrderStats{n: n}
	if n > 0 {
		// The ranks are the ones summaryOf reads, whatever they are.
		summaryOf(n, 0, 0, func(i int) float64 {
			o.ranks[o.kept] = i
			o.kept++
			return 0
		})
		slices.Sort(o.ranks[:o.kept])
	}
	return o
}

// Add feeds the next value; it must not be below the values before it,
// as sort.Float64s orders them.
func (o *OrderStats) Add(x float64) {
	for o.next < o.kept && o.ranks[o.next] == o.seen {
		o.vals[o.next] = x
		o.next++
	}
	o.seen++
}

// Summarize returns the Summary of the n values, with the given mean
// and standard deviation. Given the mean and standard deviation MeanStd
// sums for the values in some order, it is Summarize's of them in that
// order, bit for bit.
func (o *OrderStats) Summarize(mean, std float64) (Summary, error) {
	if o.n == 0 {
		return Summary{}, ErrEmpty
	}
	if o.seen != o.n {
		return Summary{}, fmt.Errorf("stats: %d of %d values added", o.seen, o.n)
	}
	return summaryOf(o.n, mean, std, func(i int) float64 {
		j, _ := slices.BinarySearch(o.ranks[:o.kept], i)
		return o.vals[j]
	}), nil
}

// MeanStd returns Summarize(xs)'s Mean and Std, summed over xs in
// order, without sorting xs. Both are zero for an empty xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if len(xs) > 1 {
		std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, std
}

// String renders the summary in one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p25=%.2f med=%.2f p75=%.2f p90=%.2f max=%.2f",
		s.N, s.Mean, s.Std, s.Min, s.P25, s.Median, s.P75, s.P90, s.Max)
}

// Pearson computes the Pearson correlation coefficient between two
// equal-length sample vectors, as used in Table 2. It returns an error if
// the lengths differ, fewer than two points are given, or either vector
// has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Binner assigns values to labelled half-open bins [edge[i], edge[i+1]).
// Values below the first edge go to bin 0; values at or above the last
// edge go to the final bin. This matches the paper's speed bins:
// low (0–20 mph), mid (20–60), high (60+).
type Binner struct {
	Edges  []float64 // interior edges, ascending; len(Edges) = len(Labels)-1
	Labels []string
}

// NewBinner builds a binner from interior edges and one label per bin.
func NewBinner(edges []float64, labels []string) (*Binner, error) {
	if len(labels) != len(edges)+1 {
		return nil, fmt.Errorf("stats: %d labels for %d edges; want edges+1", len(labels), len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: edges not ascending at %d", i)
		}
	}
	return &Binner{Edges: append([]float64(nil), edges...), Labels: append([]string(nil), labels...)}, nil
}

// Index reports which bin x belongs to.
func (b *Binner) Index(x float64) int {
	return sort.SearchFloat64s(b.Edges, x+smallestStep(x))
}

// smallestStep nudges x so that values exactly on an edge land in the
// upper bin, giving half-open [lo, hi) semantics with SearchFloat64s.
func smallestStep(x float64) float64 {
	return math.Nextafter(math.Abs(x), math.Inf(1)) - math.Abs(x)
}

// Bins reports the number of bins.
func (b *Binner) Bins() int { return len(b.Labels) }

// SpeedBins is the paper's three-way vehicle-speed binning in mph.
func SpeedBins() *Binner {
	b, err := NewBinner([]float64{20, 60}, []string{"0-20 mph", "20-60 mph", "60+ mph"})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return b
}
