package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// view is a read-only index over one database, built once per report
// and shared by its sections. It holds row positions, not rows, in
// components that are each built on first use behind their own
// sync.Once, so that sections rendering concurrently read them without
// locks and a single figure builds only the components it reads:
//   - the throughput rows of each operator, direction and static/driving
//     cut;
//   - the non-lost RTT rows of each operator and static/driving cut;
//   - each test's throughput and RTT rows, in test-ID order, and the
//     per-test aggregates Figures 9 and 10 read;
//   - Table 2's KPI columns, which the multivariate fit reads too;
//   - Figure 9, which Table 3 reads.
//
// A cut keeps its values twice: in table order, so that means and
// standard deviations add up as a table scan would, and sorted once, so
// that every quantile of the cut reads the same sort. A finer cut, such
// as one technology's rows of a driving cut, is only summarized, never
// kept (cut.summarizeBy). The view indexes rows by their operator,
// direction, technology and timezone, each one of the study's: a
// campaign writes no other, and ReadJSON rejects a row with another.
type view struct {
	db *dataset.DB

	tputOnce sync.Once
	tput     [radio.NumOperators][radio.NumDirections][2]cut // [op][dir][static]

	rttOnce sync.Once
	rtt     [radio.NumOperators][2]cut // non-lost, [op][static]

	testsOnce sync.Once
	tests     testIndex

	meansOnce sync.Once
	means     []testMeans // per test, in ids order

	kpisOnce sync.Once
	kpis     [radio.NumOperators][radio.NumDirections]map[string][]float64 // by KPIName

	longOnce sync.Once
	long     LongTimescale
}

func newView(db *dataset.DB) *view { return &view{db: db} }

// staticIndex is a cut's index in the static/driving dimension: 0 for
// driving, 1 for static.
func staticIndex(static bool) int {
	if static {
		return 1
	}
	return 0
}

// cut is a set of rows of one table, with one value per row: the
// rows' positions and values in table order, and the values sorted.
// When the values hold no NaN and no -0, values that compare equal are
// equal bit for bit, so every sort of them gives the same sequence; a
// cut built from a table then also ranks its rows in that order, and
// summarizeBy reads each part's order statistics off the ranking
// instead of sorting again.
type cut struct {
	pos    []int32   // row positions, in table order
	vals   []float64 // vals[i] is row pos[i]'s value
	sorted []float64 // vals as sort.Float64s leaves them
	ranked []int32   // sorted[r] is vals[ranked[r]]; nil when not ranked
}

// newCut is the cut of every row of a column: vals[i] is row i's value.
// It keeps vals, and sorts them in scratch.
func newCut(vals []float64, scratch *radixScratch) cut {
	pos := make([]int32, len(vals))
	for i := range pos {
		pos[i] = int32(i)
	}
	return sortedCut(pos, vals, scratch)
}

// cutsOf groups a table's rows into parts, each a cut of its own:
// keys[i] is row i's part, or negative for none, and val(i) its value.
func cutsOf(keys []int32, parts int, val func(i int32) float64) []cut {
	g := groupRows(keys, parts)
	vals := make([]float64, len(g.idx))
	for j, i := range g.idx {
		vals[j] = val(i)
	}
	// The parts sort one after another in arrays sized for the largest.
	var largest int32
	for k := 0; k < parts; k++ {
		largest = max(largest, g.start[k+1]-g.start[k])
	}
	scratch := newRadixScratch(int(largest))
	out := make([]cut, parts)
	for k := range out {
		lo, hi := g.start[k], g.start[k+1]
		out[k] = sortedCut(g.idx[lo:hi:hi], vals[lo:hi:hi], scratch)
	}
	return out
}

// sortedCut is the cut of rows pos with values vals: their one sort,
// ranked when the values are plain, in scratch.
func sortedCut(pos []int32, vals []float64, scratch *radixScratch) cut {
	c := cut{pos: pos, vals: vals}
	if plain(vals) {
		c.ranked = radixOrder(vals, scratch)
		c.sorted = make([]float64, len(vals))
		for r, i := range c.ranked {
			c.sorted[r] = vals[i]
		}
	} else {
		c.sorted = slices.Clone(vals)
		sort.Float64s(c.sorted)
	}
	return c
}

// summary is summarizeOrZero(c.vals), with the order statistics read
// from the shared sort.
func (c *cut) summary() stats.Summary {
	s, err := stats.SummarizeSorted(c.vals, c.sorted)
	if err != nil {
		return stats.Summary{}
	}
	return s
}

// below counts the values under x the way CDF.FracBelow does, NaN
// included.
func (c *cut) below(x float64) int { return sort.SearchFloat64s(c.sorted, x) }

// part is one part of a cut split by a key of its rows, summarized
// without being built: the Summary summarizeOrZero gives for the part's
// values in table order, and how many of those values are above 0.
type part struct {
	stats.Summary
	positive int
}

// summarizeBy splits c into parts by key of each row position, in
// [0, parts), and summarizes each part. The mean and standard deviation
// of a part are summed over its values in table order, as stats.MeanStd
// sums them. Its order statistics are read off c's ranking, which
// yields every part's values in ascending order; without a ranking, the
// parts are gathered into one scratch array and each sorted there.
func (c *cut) summarizeBy(parts int, key func(p int32) int) []part {
	out := make([]part, parts)
	keys := make([]int32, len(c.pos))
	means := make([]float64, parts) // each part's sum, until it is counted
	for i, p := range c.pos {
		k := key(p)
		keys[i] = int32(k)
		out[k].N++
		means[k] += c.vals[i]
		if c.vals[i] > 0 {
			out[k].positive++
		}
	}
	ords := make([]stats.OrderStats, parts)
	for k := range means {
		if out[k].N > 0 {
			means[k] /= float64(out[k].N)
		}
		ords[k] = stats.NewOrderStats(out[k].N)
	}
	ss := make([]float64, parts)
	for i, x := range c.vals {
		d := x - means[keys[i]]
		ss[keys[i]] += d * d
	}
	if c.ranked != nil {
		for r, i := range c.ranked {
			ords[keys[i]].Add(c.sorted[r])
		}
	} else {
		// Part k's values are sorted[start[k]:start[k+1]].
		start := make([]int, parts+1)
		for k := range out {
			start[k+1] = start[k] + out[k].N
		}
		next := slices.Clone(start[:parts])
		sorted := make([]float64, len(c.vals))
		for i, x := range c.vals {
			k := keys[i]
			sorted[next[k]] = x
			next[k]++
		}
		for k := range out {
			vals := sorted[start[k]:start[k+1]]
			sort.Float64s(vals)
			for _, x := range vals {
				ords[k].Add(x)
			}
		}
	}
	for k := range out {
		n := out[k].N
		if n == 0 {
			continue
		}
		std := 0.0
		if n > 1 {
			std = math.Sqrt(ss[k] / float64(n-1))
		}
		out[k].Summary, _ = ords[k].Summarize(means[k], std)
	}
	return out
}

// plain reports whether vals hold no NaN and no -0.
func plain(vals []float64) bool {
	for _, x := range vals {
		if x != x || (x == 0 && math.Signbit(x)) {
			return false
		}
	}
	return true
}

// radixScratch is radixOrder's working memory: two key arrays and an
// index array, kept so that sorts one after another share them.
type radixScratch struct {
	keys, keys2 []uint64
	idx         []int32
}

// newRadixScratch is the scratch of sorts of up to n values.
func newRadixScratch(n int) *radixScratch {
	return &radixScratch{make([]uint64, n), make([]uint64, n), make([]int32, n)}
}

// radixOrder returns the indexes of plain vals in ascending value order,
// ties in index order: a least-significant-digit radix sort, a byte at
// a time, of the values' order-preserving bit patterns. It works in
// scratch, which it grows to len(vals) if it is shorter; only the order
// it returns is allocated per call.
func radixOrder(vals []float64, scratch *radixScratch) []int32 {
	const bits, digits = 8, 8
	n := len(vals)
	if len(scratch.idx) < n {
		*scratch = *newRadixScratch(n)
	}
	out := make([]int32, n)
	keys, keys2 := scratch.keys[:n], scratch.keys2[:n]
	idx, idx2 := out, scratch.idx[:n]
	// counts[d][v] is how many keys have value v in digit d.
	var counts [digits][1 << bits]int32
	for i, x := range vals {
		b := math.Float64bits(x)
		if b>>63 != 0 {
			b = ^b // negative: larger magnitudes first
		} else {
			b |= 1 << 63
		}
		keys[i], idx[i] = b, int32(i)
		for d := range counts {
			counts[d][b>>(bits*d)&(1<<bits-1)]++
		}
	}
	for d := range counts {
		shift := bits * d
		if n == 0 || int(counts[d][keys[0]>>shift&(1<<bits-1)]) == n {
			continue // one value in this digit: the order stands
		}
		var next [1 << bits]int32
		for v := 1; v < len(next); v++ {
			next[v] = next[v-1] + counts[d][v-1]
		}
		for i, k := range keys {
			v := k >> shift & (1<<bits - 1)
			keys2[next[v]], idx2[next[v]] = k, idx[i]
			next[v]++
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	if n > 0 && &idx[0] != &out[0] {
		copy(out, idx) // the last pass left the order in scratch
	}
	return out
}

// rowsOf holds the rows of each of a set of keys in one table, in table
// order: key k's are idx[start[k]:start[k+1]].
type rowsOf struct{ start, idx []int32 }

func (r rowsOf) of(k int) []int32 { return r.idx[r.start[k]:r.start[k+1]] }

// groupRows groups the indexes of keys by their key, in index order;
// keys[i] is row i's key in [0, parts), or negative for none.
func groupRows(keys []int32, parts int) rowsOf {
	start := make([]int32, parts+1)
	for _, k := range keys {
		if k >= 0 {
			start[k+1]++
		}
	}
	for k := 0; k < parts; k++ {
		start[k+1] += start[k]
	}
	idx := make([]int32, start[parts])
	next := slices.Clone(start[:parts])
	for i, k := range keys {
		if k >= 0 {
			idx[next[k]] = int32(i)
			next[k]++
		}
	}
	return rowsOf{start, idx}
}

// tputKey numbers the throughput cuts.
func tputKey(op, dir, static int) int { return (op*radio.NumDirections+dir)*2 + static }

// throughput returns the throughput cut of one operator, direction and
// static/driving.
func (v *view) throughput(op radio.Operator, dir radio.Direction, static bool) *cut {
	v.tputOnce.Do(func() {
		rows := v.db.Throughput
		keys := make([]int32, len(rows))
		for i := range rows {
			s := &rows[i]
			keys[i] = int32(tputKey(int(s.Op), int(s.Dir), staticIndex(s.Static)))
		}
		cuts := cutsOf(keys, radio.NumOperators*radio.NumDirections*2, func(i int32) float64 { return rows[i].Mbps })
		for op := range v.tput {
			for dir := range v.tput[op] {
				for st := range v.tput[op][dir] {
					v.tput[op][dir][st] = cuts[tputKey(op, dir, st)]
				}
			}
		}
	})
	return &v.tput[op][dir][staticIndex(static)]
}

// driving is the driving throughput cut of one operator and direction.
func (v *view) driving(op radio.Operator, dir radio.Direction) *cut {
	return v.throughput(op, dir, false)
}

// rttOf returns the non-lost RTT cut of one operator and static/driving.
func (v *view) rttOf(op radio.Operator, static bool) *cut {
	v.rttOnce.Do(func() {
		rows := v.db.RTT
		keys := make([]int32, len(rows))
		for i := range rows {
			keys[i] = -1
			if s := &rows[i]; !s.Lost {
				keys[i] = int32(int(s.Op)*2 + staticIndex(s.Static))
			}
		}
		cuts := cutsOf(keys, radio.NumOperators*2, func(i int32) float64 { return rows[i].RTTMS })
		for op := range v.rtt {
			for st := range v.rtt[op] {
				v.rtt[op][st] = cuts[op*2+st]
			}
		}
	})
	return &v.rtt[op][staticIndex(static)]
}

// testIndex lists each test's rows, in ascending test-ID order.
type testIndex struct {
	// ids are the distinct test IDs of the Tests, Throughput and RTT
	// tables, ascending.
	ids []int
	// row[i] is the last Tests row with ID ids[i], or -1 if none has it.
	row []int32
	// The rows of test ids[i] in each table.
	tput, rtt rowsOf
}

// testRows returns the per-test index.
func (v *view) testRows() *testIndex {
	v.testsOnce.Do(func() {
		db := v.db
		slotOf := make(map[int]int32, len(db.Tests))
		var ids []int
		slot := func(id int) int32 {
			s, ok := slotOf[id]
			if !ok {
				s = int32(len(ids))
				slotOf[id] = s
				ids = append(ids, id)
			}
			return s
		}
		var testRow []int32 // by slot; the Tests table takes the first slots
		for i := range db.Tests {
			if s := slot(db.Tests[i].ID); int(s) < len(testRow) {
				testRow[s] = int32(i)
			} else {
				testRow = append(testRow, int32(i))
			}
		}
		tputKeys := make([]int32, len(db.Throughput))
		for i := range db.Throughput {
			tputKeys[i] = slot(db.Throughput[i].TestID)
		}
		rttKeys := make([]int32, len(db.RTT))
		for i := range db.RTT {
			rttKeys[i] = slot(db.RTT[i].TestID)
		}
		// Renumber the slots in ascending ID order.
		bySlot := make([]int32, len(ids))
		for i := range bySlot {
			bySlot[i] = int32(i)
		}
		slices.SortFunc(bySlot, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
		rank := make([]int32, len(ids))
		x := testIndex{ids: make([]int, len(ids)), row: make([]int32, len(ids))}
		for r, s := range bySlot {
			rank[s] = int32(r)
			x.ids[r] = ids[s]
			x.row[r] = -1
			if int(s) < len(testRow) {
				x.row[r] = testRow[s]
			}
		}
		for _, keys := range [][]int32{tputKeys, rttKeys} {
			for i, k := range keys {
				keys[i] = rank[k]
			}
		}
		x.tput = groupRows(tputKeys, len(ids))
		x.rtt = groupRows(rttKeys, len(ids))
		v.tests = x
	})
	return &v.tests
}

// slot returns the i with ids[i] == id, or -1.
func (x *testIndex) slot(id int) int {
	if i, ok := slices.BinarySearch(x.ids, id); ok {
		return i
	}
	return -1
}

// test returns the Tests row of ids[i], or the zero Test when no test
// has that ID, as a lookup in a map of tests by ID would.
func (x *testIndex) test(db *dataset.DB, i int) *dataset.Test {
	if r := x.row[i]; r >= 0 {
		return &db.Tests[r]
	}
	return &dataset.Test{}
}

// testMeans is one test's per-test aggregates: the mean and standard
// deviation of its driving throughput and non-lost driving RTT samples,
// and how many of its samples ran on high-speed 5G.
type testMeans struct {
	tputN             int // driving throughput samples
	tputMean, tputStd float64
	tputHS, tputAll   int // high-speed and all throughput samples, static ones included
	rttN              int // non-lost driving RTT samples
	rttMean, rttStd   float64
	rttHS, rttDriving int // high-speed and all driving RTT samples, lost ones included
}

// testMeansOf returns the per-test aggregates, in ids order.
func (v *view) testMeansOf() []testMeans {
	v.meansOnce.Do(func() {
		x := v.testRows()
		out := make([]testMeans, len(x.ids))
		var buf []float64
		for i := range out {
			m := &out[i]
			buf = buf[:0]
			for _, p := range x.tput.of(i) {
				s := &v.db.Throughput[p]
				m.tputAll++
				if s.Tech.IsHighSpeed() {
					m.tputHS++
				}
				if !s.Static {
					buf = append(buf, s.Mbps)
				}
			}
			m.tputN = len(buf)
			m.tputMean, m.tputStd = stats.MeanStd(buf)
			buf = buf[:0]
			for _, p := range x.rtt.of(i) {
				s := &v.db.RTT[p]
				if s.Static {
					continue
				}
				m.rttDriving++
				if s.Tech.IsHighSpeed() {
					m.rttHS++
				}
				if !s.Lost {
					buf = append(buf, s.RTTMS)
				}
			}
			m.rttN = len(buf)
			m.rttMean, m.rttStd = stats.MeanStd(buf)
		}
		v.means = out
	})
	return v.means
}

// drivingKPIs returns the throughput of op's driving samples in dir
// and, aligned with it, each Table 2 KPI's values keyed by name. Table
// 2 and the multivariate fit read the same columns. The throughput is
// the driving cut's values, and each KPI column is filled at its exact
// size through the cut's rows.
func (v *view) drivingKPIs(op radio.Operator, dir radio.Direction) (tput []float64, kpis map[string][]float64) {
	v.kpisOnce.Do(func() {
		rows := v.db.Throughput
		names := KPINames()
		for o := range v.kpis {
			for d := range v.kpis[o] {
				c := v.driving(radio.Operator(o), radio.Direction(d))
				n := len(c.pos)
				// One array holds the columns, in KPINames order.
				all := make([]float64, len(names)*n)
				col := func(k int) []float64 { return all[k*n : (k+1)*n : (k+1)*n] }
				rsrp, mcs, ca, bler, speed, ho := col(0), col(1), col(2), col(3), col(4), col(5)
				for i, p := range c.pos {
					s := &rows[p]
					rsrp[i], mcs[i], ca[i] = s.RSRP, float64(s.MCS), float64(s.CC)
					bler[i], speed[i], ho[i] = s.BLER, s.SpeedMPH, float64(s.Handovers)
				}
				v.kpis[o][d] = make(map[string][]float64, len(names))
				for k, name := range names {
					v.kpis[o][d][string(name)] = col(k)
				}
			}
		}
	})
	return v.driving(op, dir).vals, v.kpis[op][dir]
}
