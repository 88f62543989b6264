package core

import (
	"sync"
	"sync/atomic"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/obs"
)

// blockTicks is how many tick states one block of the shared drive
// holds: about 780 KB with their shared RTTs, a few seconds of lane work
// at most.
const blockTicks = 4096

// blockPool is how many blocks are in flight at once. It bounds how far
// the fastest lane can run ahead of the slowest, and the memory the
// drive costs: the whole route is never materialized.
const blockPool = 4

// tickBlock is a run of consecutive tick states that every lane reads.
type tickBlock struct {
	buf   []geo.TickState
	ticks []geo.TickState // the filled prefix of buf
	// wire[i] is ticks[i]'s shared wireline RTT (see wireSites); it has
	// buf's length.
	wire []wireRTT
	// readers counts the lanes that have yet to step this block; the
	// last one to finish returns it to the pool.
	readers atomic.Int32
}

// newBlockPool returns a pool of n empty blocks of size ticks each.
func newBlockPool(n, size int) chan *tickBlock {
	free := make(chan *tickBlock, n)
	for i := 0; i < n; i++ {
		free <- &tickBlock{buf: make([]geo.TickState, size), wire: make([]wireRTT, size)}
	}
	return free
}

// produceBlocks steps cur to the end of the trip, filling blocks of up
// to size ticks taken from free in place, with each tick's shared RTT to
// the sites, and handing each block, in trip order, to every channel of
// outs. It closes outs once the trip is over and returns the trip's tick
// count and its last drive state. Each out must have room for every
// block of the pool, so handing a block on never waits for a lane.
func produceBlocks(cur *geo.Cursor, sites *wireSites, size int, free chan *tickBlock, outs []chan *tickBlock) (ticks int, last geo.DriveState) {
	defer func() {
		for _, out := range outs {
			close(out)
		}
	}()
	for {
		blk := <-free
		n := 0
		for n < size && cur.NextInto(&blk.buf[n]) {
			blk.wire[n] = sites.at(&blk.buf[n])
			n++
		}
		if n == 0 {
			free <- blk
			return ticks, last
		}
		blk.ticks = blk.buf[:n]
		ticks += n
		last = blk.ticks[n-1].DriveState
		blk.readers.Store(int32(len(outs)))
		for _, out := range outs {
			out <- blk
		}
		if n < size {
			return ticks, last
		}
	}
}

// runLanes replays the timeline through every lane with the campaign's
// one drive pass. The calling goroutine steps a single cursor into a
// small pool of blocks; every lane reads every block in order on its
// own goroutine, and at most workers lanes step a block at any moment.
// The unit of scheduling is thus (lane, block): three lanes keep two
// cores busy to the end instead of leaving one lane to run alone. Each
// lane still sees the whole timeline in order, so its output does not
// depend on workers. It returns what the pass learned: the trip's tick
// count and its last drive state.
func runLanes(tl *geo.Timeline, sites *wireSites, lanes []*lane, workers int, rec *obs.Recorder) (ticks int, last geo.DriveState) {
	free := newBlockPool(blockPool, blockTicks)
	// A lane's channel holds every block of the pool, so the producer
	// never waits on a lane, only on the pool.
	outs := make([]chan *tickBlock, len(lanes))
	for i := range outs {
		outs[i] = make(chan *tickBlock, blockPool)
	}
	slots := make(chan struct{}, workers)

	var wg sync.WaitGroup
	wg.Add(len(lanes))
	for i, l := range lanes {
		go func(l *lane, in <-chan *tickBlock) {
			defer wg.Done()
			defer rec.StartPhase("lane/" + l.op.Short())()
			for blk := range in {
				slots <- struct{}{}
				l.step(blk)
				<-slots
				if blk.readers.Add(-1) == 0 {
					free <- blk
				}
			}
			slots <- struct{}{}
			l.finish()
			<-slots
		}(l, outs[i])
	}
	ticks, last = produceBlocks(tl.Cursor(), sites, blockTicks, free, outs)
	wg.Wait()
	return ticks, last
}
