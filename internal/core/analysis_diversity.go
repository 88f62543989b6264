package core

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// OperatorPair names an ordered carrier pair, in the paper's ordering.
type OperatorPair struct {
	A, B radio.Operator
}

// String implements fmt.Stringer.
func (p OperatorPair) String() string { return p.A.String() + " - " + p.B.String() }

// Pairs returns the paper's three pairs.
func Pairs() []OperatorPair {
	return []OperatorPair{
		{radio.Verizon, radio.TMobile},
		{radio.TMobile, radio.ATT},
		{radio.ATT, radio.Verizon},
	}
}

// HTLTBin classifies a concurrent sample pair by each side's technology
// class: HT is high-speed 5G (mid/mmWave), LT everything else (§5.4).
type HTLTBin int

// Pair bins.
const (
	HTHT HTLTBin = iota
	HTLT
	LTHT
	LTLT
)

// String implements fmt.Stringer.
func (b HTLTBin) String() string {
	return [...]string{"HT-HT", "HT-LT", "LT-HT", "LT-LT"}[b]
}

func binOfPair(a, b radio.Technology) HTLTBin {
	switch {
	case a.IsHighSpeed() && b.IsHighSpeed():
		return HTHT
	case a.IsHighSpeed():
		return HTLT
	case b.IsHighSpeed():
		return LTHT
	default:
		return LTLT
	}
}

// PairDiff summarizes the concurrent throughput differences of one
// operator pair in one direction.
type PairDiff struct {
	N int
	// Diff summarizes A−B over all concurrent samples (Fig 6a).
	Diff stats.Summary
	// FracAPositive is the share of samples where A outperforms B.
	FracAPositive float64
	// BinShare is the fraction of samples in each HT/LT bin (Fig 6b).
	BinShare map[HTLTBin]float64
	// BinDiff summarizes A−B within each bin (Figs 6c, 6d).
	BinDiff map[HTLTBin]stats.Summary
	// BinFracAPositive is the A-wins share within each bin.
	BinFracAPositive map[HTLTBin]float64
}

// OperatorDiversity regenerates Fig 6.
type OperatorDiversity struct {
	// ByPair[pair][dir].
	ByPair map[OperatorPair]map[radio.Direction]PairDiff
}

// concurrencyWindow is the maximum skew between two samples counted as
// concurrent. The campaign runs the three phones' rotations in lock-step,
// so matched samples are nominally simultaneous.
const concurrencyWindow = 250 * time.Millisecond

// operatorDiversity computes Fig 6 from concurrent sample pairs.
func operatorDiversity(v *view) OperatorDiversity {
	out := OperatorDiversity{ByPair: map[OperatorPair]map[radio.Direction]PairDiff{}}
	rows := v.db.Throughput
	scratch := newRadixScratch(0) // every pair's differences sort in it
	for _, pair := range Pairs() {
		out.ByPair[pair] = map[radio.Direction]PairDiff{}
		for _, dir := range radio.Directions() {
			// Each cut is in table order, which the merge sorts by time.
			as, bs := v.driving(pair.A, dir).pos, v.driving(pair.B, dir).pos
			pd := PairDiff{
				BinShare:         map[HTLTBin]float64{},
				BinDiff:          map[HTLTBin]stats.Summary{},
				BinFracAPositive: map[HTLTBin]float64{},
			}
			diffs := make([]float64, 0, len(as))
			bins := make([]HTLTBin, 0, len(as)) // bins[i] is diffs[i]'s
			j := 0
			for _, pa := range as {
				a := &rows[pa]
				// advance j to the first b not far before a
				for j < len(bs) && rows[bs[j]].Time.Before(a.Time.Add(-concurrencyWindow)) {
					j++
				}
				if j >= len(bs) {
					break
				}
				b := &rows[bs[j]]
				skew := b.Time.Sub(a.Time)
				if skew < 0 {
					skew = -skew
				}
				if skew > concurrencyWindow {
					continue
				}
				diffs = append(diffs, a.Mbps-b.Mbps)
				bins = append(bins, binOfPair(a.Tech, b.Tech))
			}
			all := newCut(diffs, scratch)
			pd.N = len(diffs)
			pd.Diff = all.summary()
			pd.FracAPositive = fracPositive(diffs)
			for bin, c := range all.summarizeBy(int(LTLT)+1, func(i int32) int { return int(bins[i]) }) {
				if c.N == 0 {
					continue
				}
				pd.BinShare[HTLTBin(bin)] = float64(c.N) / float64(len(diffs))
				pd.BinDiff[HTLTBin(bin)] = c.Summary
				pd.BinFracAPositive[HTLTBin(bin)] = float64(c.positive) / float64(c.N)
			}
			out.ByPair[pair][dir] = pd
		}
	}
	return out
}

func fracPositive(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Render formats Fig 6.
func (r OperatorDiversity) Render() string {
	header := []string{"pair", "dir", "n", "diff med", "diff p10", "diff p90", "A wins"}
	var rows [][]string
	for _, pair := range Pairs() {
		for _, dir := range radio.Directions() {
			pd := r.ByPair[pair][dir]
			rows = append(rows, []string{
				pair.String(), dir.String(), fmt.Sprintf("%d", pd.N),
				f1(pd.Diff.Median), f1(pd.Diff.P25), f1(pd.Diff.P90), pct(pd.FracAPositive),
			})
		}
	}
	s := renderTable("Figure 6a: concurrent throughput difference (A−B, Mbps)", header, rows)

	rows = rows[:0]
	for _, pair := range Pairs() {
		for _, dir := range radio.Directions() {
			pd := r.ByPair[pair][dir]
			rows = append(rows, []string{
				pair.String(), dir.String(),
				pct(pd.BinShare[HTHT]), pct(pd.BinShare[HTLT]),
				pct(pd.BinShare[LTHT]), pct(pd.BinShare[LTLT]),
			})
		}
	}
	s += renderTable("Figure 6b: HT/LT bin shares",
		[]string{"pair", "dir", "HT-HT", "HT-LT", "LT-HT", "LT-LT"}, rows)

	rows = rows[:0]
	for _, pair := range Pairs() {
		for _, dir := range radio.Directions() {
			pd := r.ByPair[pair][dir]
			rows = append(rows, []string{
				pair.String(), dir.String(),
				f1(pd.BinDiff[LTLT].Median), pct(pd.BinFracAPositive[LTLT]),
				f1(pd.BinDiff[HTHT].Median), pct(pd.BinFracAPositive[HTHT]),
				pct(pd.BinFracAPositive[HTLT]), pct(pd.BinFracAPositive[LTHT]),
			})
		}
	}
	s += renderTable("Figures 6c/6d: per-bin differences",
		[]string{"pair", "dir", "LT-LT med", "LT-LT A-wins", "HT-HT med", "HT-HT A-wins", "HT-LT A-wins", "LT-HT A-wins"}, rows)
	return s
}
