package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TestProduceBlocksMatchesCursor checks that every reader of the block
// producer sees exactly a fresh cursor's Next sequence, and that the
// producer reports that sequence's length and last drive state, for trips
// that fill a whole number of blocks, one tick more, and one tick less,
// with static holds that straddle block boundaries.
func TestProduceBlocksMatchesCursor(t *testing.T) {
	// Search trip lengths for one whose tick count n admits all three
	// cases with a block size in [50, hold length), so every block size
	// splits the hold that opens the trip.
	const holdBudget = 30 * time.Second
	holdTicks := int(holdBudget / Tick)
	blockWith := func(n int, rem func(b int) int) int {
		for b := 50; b < holdTicks; b++ {
			if n%b == rem(b)%b {
				return b
			}
		}
		return 0
	}
	var tl *geo.Timeline
	var cases map[string]int
	for m := 2000; tl == nil; m += 100 {
		if m > 10000 {
			t.Fatal("no trip length up to 10 km admits every block-size case")
		}
		cand := geo.NewTimeline(geo.DefaultRoute(), geo.DefaultDriveConfig(), simrand.New(3), geo.TimelineConfig{
			Tick:  Tick,
			Limit: unit.Meters(m),
			Hold:  geo.HoldRule{MaxCityDistance: staticCityRadius, Budget: holdBudget},
		})
		n := cand.Ticks()
		c := map[string]int{
			"exact multiple": blockWith(n, func(int) int { return 0 }),
			"one more":       blockWith(n, func(int) int { return 1 }),
			"one less":       blockWith(n, func(b int) int { return b - 1 }),
		}
		if c["exact multiple"] > 0 && c["one more"] > 0 && c["one less"] > 0 {
			tl, cases = cand, c
		}
	}
	want, holds := replayHolds(tl)
	n := len(want)
	if got := tl.Ticks(); n != got || len(holds) == 0 {
		t.Fatalf("timeline: %d ticks (Ticks %d), %d holds; want holds", n, got, len(holds))
	}
	for name, size := range cases {
		t.Run(name, func(t *testing.T) {
			for _, h := range holds {
				if h.start/size == (h.start+h.ticks-1)/size {
					t.Fatalf("block size %d: hold at tick %d fits in one block", size, h.start)
				}
			}
			const readers = 2
			free := newBlockPool(2, size)
			outs := make([]chan *tickBlock, readers)
			for i := range outs {
				outs[i] = make(chan *tickBlock, 2)
			}
			got := make([][]geo.TickState, readers)
			var wg sync.WaitGroup
			wg.Add(readers)
			for i := range outs {
				go func(i int) {
					defer wg.Done()
					for blk := range outs[i] {
						if len(blk.ticks) > size || (len(blk.ticks) < size && len(got[i])+len(blk.ticks) != n) {
							t.Errorf("reader %d: block of %d ticks after %d, size %d", i, len(blk.ticks), len(got[i]), size)
						}
						got[i] = append(got[i], blk.ticks...)
						if blk.readers.Add(-1) == 0 {
							free <- blk
						}
					}
				}(i)
			}
			ticks, last := produceBlocks(tl.Cursor(), size, free, outs)
			wg.Wait()
			if ticks != n || last != want[n-1].DriveState {
				t.Errorf("block size %d: producer reported %d ticks ending at %+v, want %d ending at %+v",
					size, ticks, last, n, want[n-1].DriveState)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("block size %d: reader %d saw %d ticks, not the cursor's %d-tick sequence", size, i, len(got[i]), n)
				}
			}
		})
	}
}

// holdSpan is one static hold window of a replayed timeline.
type holdSpan struct {
	start int // index of the window's first tick
	ticks int
}

// replayHolds steps one cursor of tl to the end and returns every tick
// state plus the hold windows, each from its HoldFirst to its HoldLast
// tick.
func replayHolds(tl *geo.Timeline) ([]geo.TickState, []holdSpan) {
	var all []geo.TickState
	var holds []holdSpan
	for cur := tl.Cursor(); ; {
		ts, ok := cur.Next()
		if !ok {
			return all, holds
		}
		if ts.HoldFirst {
			holds = append(holds, holdSpan{start: len(all)})
		}
		if ts.Hold && len(holds) > 0 {
			holds[len(holds)-1].ticks++
		}
		all = append(all, ts)
	}
}
