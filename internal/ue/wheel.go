package ue

import "slices"

// An event is one scheduled occurrence for a slot, packed into an 8-byte
// key: kind in the top 3 bits, slot in the next 29, the slot's
// generation stamp in the low 32. The generation lets a detach cancel
// every event still in flight for the slot without searching the wheel:
// stale generations are dropped at fire time. Ordering keys as integers
// orders events by (kind, slot, gen), the order take hands a tick's
// events out in.
const (
	kindShift = 61
	slotShift = 32
)

// eventKey packs an event. slot must be below 1<<29 (MaxSize is far
// inside that) and kind below 8.
func eventKey(kind uint8, slot int32, gen uint32) uint64 {
	return uint64(kind)<<kindShift | uint64(slot)<<slotShift | uint64(gen)
}

// unpackKey splits a key into its kind, slot and generation.
func unpackKey(k uint64) (kind uint8, slot int32, gen uint32) {
	return uint8(k >> kindShift), int32(k >> slotShift & (1<<(kindShift-slotShift) - 1)), uint32(k)
}

// farEvent is an event filed beyond the ring's horizon: the only place
// an event's due tick is stored, since a ring bucket's index is its tick.
type farEvent struct {
	at  int64
	key uint64
}

// wheelBits sizes the wheel's ring: 2^13 ticks ≈ 410 s of horizon at the
// 50 ms step. Events further out wait in per-epoch overflow buckets and
// are folded into the ring when their epoch begins, so scheduling and
// firing stay O(1) amortized whatever the horizon.
const wheelBits = 13

// wheel is a tick-indexed timer wheel: a ring of near-term buckets plus
// keyed overflow for far-future epochs. A bucket is filed in any order
// and sorted when it fires.
type wheel struct {
	ring  [][]uint64
	far   map[int64][]farEvent // epoch (tick >> wheelBits) -> events
	spare [][]uint64           // fired buckets' storage, awaiting reuse
	depth int                  // scheduled but not yet fired
}

// spareCap bounds the recycled-bucket pool; beyond it, storage is simply
// dropped for the GC. One bucket fires per tick, so over a full ring
// revolution the pool can absorb up to a ring's worth of fired storage —
// exactly the demand the next epoch fold and the epoch's first-touch
// schedules create. A smaller cap would leak steady-state allocations
// back into Advance; a larger one can never fill.
const spareCap = 1 << wheelBits

func (w *wheel) init() {
	w.ring = make([][]uint64, 1<<wheelBits)
	w.far = map[int64][]farEvent{}
}

// schedule files an event key due at tick at, strictly after the
// current tick now.
func (w *wheel) schedule(at int64, key uint64, now int64) {
	if at>>wheelBits == now>>wheelBits {
		w.emplace(at&(1<<wheelBits-1), key)
	} else {
		e := at >> wheelBits
		w.far[e] = append(w.far[e], farEvent{at, key})
	}
	w.depth++
}

// emplace appends key to ring slot i, seeding an empty slot from the
// spare pool so steady-state filing reuses fired buckets' storage
// instead of growing fresh ones.
func (w *wheel) emplace(i int64, key uint64) {
	if w.ring[i] == nil && len(w.spare) > 0 {
		w.ring[i] = w.spare[len(w.spare)-1]
		w.spare = w.spare[:len(w.spare)-1]
	}
	w.ring[i] = append(w.ring[i], key)
}

// take returns (and removes) the bucket due at tick, sorted by key, that
// is by (kind, slot, gen). On the first tick of an epoch the epoch's
// overflow is folded into the ring first. The overflow map is only ever
// indexed by epoch key, never iterated, so no map-order nondeterminism
// can leak into results.
//
// The registry's contract is (kind, slot) order, as a stable sort of the
// bucket in filing order used to give. Sorting by gen as well reorders
// only keys of one (kind, slot), and the same of those fire in any
// order, because only a detach changes a generation: see DESIGN.md
// Appendix D and TestWheelOrderMatchesStableSort.
func (w *wheel) take(tick int64) []uint64 {
	mask := int64(1<<wheelBits - 1)
	if tick&mask == 0 {
		epoch := tick >> wheelBits
		if evs, ok := w.far[epoch]; ok {
			for _, ev := range evs {
				w.emplace(ev.at&mask, ev.key)
			}
			delete(w.far, epoch)
		}
	}
	b := w.ring[tick&mask]
	w.ring[tick&mask] = nil
	w.depth -= len(b)
	slices.Sort(b)
	return b
}

// recycle returns a fired bucket's storage to the spare pool. The caller
// must be completely done with the bucket: the next schedule may hand the
// same backing array to a new ring slot.
func (w *wheel) recycle(b []uint64) {
	if cap(b) == 0 || len(w.spare) >= spareCap {
		return
	}
	w.spare = append(w.spare, b[:0])
}
