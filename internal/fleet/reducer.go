package fleet

import "fmt"

// Reducer is the exported face of the slot-addressed streaming reduction:
// finished runs — wherever they executed — are folded one at a time into
// per-cell replicate slots, and the Result read out at the end is
// byte-identical to a single-process Run over the same scenario. fleet.Run
// folds its own pool's runs through a Reducer; the fleetsync collector
// folds runs pushed to it over HTTP through an identical one, which is
// exactly why a distributed fleet's merged report cannot drift from a
// local run's.
//
// A Reducer knows the full expected run matrix (cells × replicates, with
// positional seeds), so Fold validates every incoming record against the
// spec it claims to be: wrong index, cell, replicate, or seed is an
// error, not a silent mis-fold. Fold is not goroutine-safe; callers
// serialize (fleet.Run folds on its collect goroutine, the collector
// under its mutex).
type Reducer struct {
	masterSeed int64
	replicates int
	cells      []Cell // the kept (reduced-over) cells, in sweep order
	acc        *accumulator
	order      []string

	// expected is the kept slice of the full run matrix, ordered by
	// full-matrix index; pos maps a full-matrix index to its position in
	// expected.
	expected []RunSpec
	pos      map[int]int
	records  []RunRecord
	seen     []bool
	received int
	okByCell []int
	failed   int
}

// NewReducer builds the reduction for a scenario: the full sweep grid is
// expanded from axes, keep (nil = keep everything) selects the cells this
// reducer covers, and every kept run's seed is derived positionally — so
// two reducers over the same scenario expect byte-for-byte the same
// matrix, whatever machines the runs land on.
func NewReducer(masterSeed int64, replicates int, axes []Axis, keep func(index int, c Cell) bool, metricOrder []string) (*Reducer, error) {
	if replicates < 1 {
		replicates = 1
	}
	all, err := Expand(axes)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	kept := make([]bool, len(all))
	for i, c := range all {
		if keep == nil || keep(i, c) {
			kept[i] = true
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("fleet: cell filter keeps no cells (%d expanded)", len(all))
	}
	r := &Reducer{
		masterSeed: masterSeed,
		replicates: replicates,
		cells:      cells,
		acc:        newAccumulator(cells, replicates),
		order:      metricOrder,
		pos:        map[int]int{},
	}
	index := 0
	for i, c := range all {
		for rep := 0; rep < replicates; rep++ {
			if kept[i] {
				r.pos[index] = len(r.expected)
				r.expected = append(r.expected, RunSpec{
					Index:     index,
					Cell:      c,
					Replicate: rep,
					Seed:      RunSeed(masterSeed, c.Key, rep),
				})
			}
			index++
		}
	}
	r.records = make([]RunRecord, len(r.expected))
	r.seen = make([]bool, len(r.expected))
	r.okByCell = make([]int, len(cells))
	return r, nil
}

// Specs lists the runs this reducer expects, ordered by full-matrix
// index. Workers execute exactly this list.
func (r *Reducer) Specs() []RunSpec { return r.expected }

// Total reports how many runs the reducer expects.
func (r *Reducer) Total() int { return len(r.expected) }

// Received reports how many expected runs have been folded so far.
func (r *Reducer) Received() int { return r.received }

// Complete reports whether every expected run has been folded.
func (r *Reducer) Complete() bool { return r.received == len(r.expected) }

// Seen reports whether the run with the given full-matrix index has been
// folded already — the idempotency check for re-pushed runs.
func (r *Reducer) Seen(index int) bool {
	p, ok := r.pos[index]
	return ok && r.seen[p]
}

// Fold validates one finished run against its expected spec and stores it
// in its slots. The record must carry the positional identity NewReducer
// derived for its index — a mismatched cell, replicate, or seed means the
// sender ran a different scenario, and folding it would silently corrupt
// the reduction.
func (r *Reducer) Fold(rec RunRecord, m Metrics) error {
	p, ok := r.pos[rec.Index]
	if !ok {
		return fmt.Errorf("fleet: reduce: run index %d is not in the expected matrix", rec.Index)
	}
	spec := r.expected[p]
	if rec.Cell != spec.Cell.Key {
		return fmt.Errorf("fleet: reduce: run %d claims cell %q, expected %q", rec.Index, rec.Cell, spec.Cell.Key)
	}
	if rec.Replicate != spec.Replicate {
		return fmt.Errorf("fleet: reduce: run %d claims replicate %d, expected %d", rec.Index, rec.Replicate, spec.Replicate)
	}
	if rec.Seed != spec.Seed {
		return fmt.Errorf("fleet: reduce: run %d claims seed %d, expected the positional seed %d", rec.Index, rec.Seed, spec.Seed)
	}
	if r.seen[p] {
		return fmt.Errorf("fleet: reduce: run %d folded twice", rec.Index)
	}
	switch rec.Status {
	case RunOK:
		r.acc.fold(spec, m)
		r.okByCell[r.acc.index[spec.Cell.Key]]++
	case RunFailed:
		r.failed++
	default:
		return fmt.Errorf("fleet: reduce: run %d has unknown status %q", rec.Index, rec.Status)
	}
	r.seen[p] = true
	r.received++
	r.records[p] = rec
	return nil
}

// Result reads out the reduction: cross-replicate statistics per kept
// cell plus the manifest of every folded run, in matrix order. The bytes
// derived from it depend only on what was folded, never on fold order.
func (r *Reducer) Result() *Result {
	keys := make([]string, len(r.cells))
	for i, c := range r.cells {
		keys[i] = c.Key
	}
	records := make([]RunRecord, len(r.records))
	copy(records, r.records)
	return &Result{
		Cells: r.acc.summarize(r.order, r.okByCell),
		Manifest: Manifest{
			Schema:     ManifestSchema,
			MasterSeed: r.masterSeed,
			Replicates: r.replicates,
			Cells:      keys,
			Failed:     r.failed,
			Runs:       records,
		},
	}
}
