package ue

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refEvent is the wheel's event as it was before events became packed
// keys: 24 bytes, with its due tick.
type refEvent struct {
	at   int64
	slot int32
	gen  uint32
	kind uint8
}

// wheelScript drives a wheel-like engine with the registry's rules: an
// event fires only if its generation is the slot's current one, a
// detach bumps the slot's generation, and every firing schedules
// follow-ups drawn from rng, at least one tick ahead. Delays mix
// same-tick collisions, in-epoch events and events several epochs out,
// and some follow-ups are scheduled twice, so buckets hold duplicate
// keys and stale generations next to live ones. A detach also files its
// slot's last follow-up again under the new generation, so one bucket
// holds a (kind, slot) under two generations.
type wheelScript struct {
	rng   *rand.Rand
	gen   []uint32
	last  []refEvent // each slot's last follow-up
	fired []refEvent // events whose generation still matched at their tick
	stale int
}

func newWheelScript(seed int64, slots int) *wheelScript {
	return &wheelScript{
		rng:  rand.New(rand.NewSource(seed)),
		gen:  make([]uint32, slots),
		last: make([]refEvent, slots),
	}
}

func (s *wheelScript) delay() int64 {
	switch p := s.rng.Float64(); {
	case p < 0.4:
		return 1 + s.rng.Int63n(4)
	case p < 0.8:
		return 1 + s.rng.Int63n(2000)
	default:
		return 1 + s.rng.Int63n(3<<wheelBits)
	}
}

// dispatch applies one event due at tick and files its follow-ups, as
// (delay, kind, slot, gen), through sched.
func (s *wheelScript) dispatch(tick int64, kind uint8, slot int32, gen uint32, sched func(delay int64, kind uint8, slot int32, gen uint32)) {
	if gen != s.gen[slot] {
		s.stale++
		return
	}
	s.fired = append(s.fired, refEvent{at: tick, slot: slot, gen: gen, kind: kind})
	if kind == evDetach {
		s.gen[slot]++
		if l := s.last[slot]; l.at > tick {
			sched(l.at-tick, l.kind, slot, s.gen[slot])
		}
	}
	n := 1
	if s.rng.Float64() < 0.3 {
		n = 2
	}
	for i := 0; i < n; i++ {
		k := uint8(s.rng.Intn(int(evMeasureStart) + 1))
		sl := int32(s.rng.Intn(len(s.gen)))
		d := s.delay()
		s.last[sl] = refEvent{at: tick + d, slot: sl, gen: s.gen[sl], kind: k}
		sched(d, k, sl, s.gen[sl])
		if s.rng.Float64() < 0.1 {
			sched(d, k, sl, s.gen[sl]) // an exact duplicate
		}
	}
}

// TestWheelOrderMatchesStableSort pins the packed-key wheel against the
// order it replaced: buckets in scheduling order, sorted stably by
// (kind, slot) with sort.SliceStable. The packed keys sort by (kind,
// slot, gen) instead, which may reorder entries of one (kind, slot)
// group; the engines must still fire the same (tick, kind, slot, gen)
// sequence, drop the same number of stale events, and therefore draw
// the same follow-ups.
func TestWheelOrderMatchesStableSort(t *testing.T) {
	const (
		slots   = 48
		initial = 4000
		ticks   = 6 << wheelBits
	)
	for _, seed := range []int64{1, 2, 3} {
		// Reference: a map of due tick to events in scheduling order.
		ref := newWheelScript(seed, slots)
		due := map[int64][]refEvent{}
		// Under test: the registry's wheel.
		got := newWheelScript(seed, slots)
		var w wheel
		w.init()
		// What the order argument is about: buckets holding one (kind,
		// slot) more than once, some with mixed generations, and
		// follow-ups filed past the ring.
		var groups, mixed, far int

		init := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < initial; i++ {
			at := 1 + init.Int63n(4<<wheelBits)
			kind := uint8(init.Intn(int(evMeasureStart) + 1))
			slot := int32(init.Intn(slots))
			due[at] = append(due[at], refEvent{at: at, slot: slot, kind: kind})
			w.schedule(at, eventKey(kind, slot, 0), 0)
		}

		for tick := int64(1); tick <= ticks; tick++ {
			n0 := len(ref.fired)
			bucket := due[tick]
			delete(due, tick)
			sort.SliceStable(bucket, func(i, j int) bool {
				if bucket[i].kind != bucket[j].kind {
					return bucket[i].kind < bucket[j].kind
				}
				return bucket[i].slot < bucket[j].slot
			})
			for i := 1; i < len(bucket); i++ {
				if bucket[i].kind == bucket[i-1].kind && bucket[i].slot == bucket[i-1].slot {
					groups++
					if bucket[i].gen != bucket[i-1].gen {
						mixed++
					}
				}
			}
			for _, ev := range bucket {
				ref.dispatch(tick, ev.kind, ev.slot, ev.gen, func(d int64, kind uint8, slot int32, gen uint32) {
					due[tick+d] = append(due[tick+d], refEvent{at: tick + d, slot: slot, gen: gen, kind: kind})
				})
			}

			keys := w.take(tick)
			for _, k := range keys {
				kind, slot, gen := unpackKey(k)
				got.dispatch(tick, kind, slot, gen, func(d int64, kind uint8, slot int32, gen uint32) {
					if (tick+d)>>wheelBits != tick>>wheelBits {
						far++
					}
					w.schedule(tick+d, eventKey(kind, slot, gen), tick)
				})
			}
			w.recycle(keys)

			if !slices.Equal(got.fired[n0:], ref.fired[n0:]) {
				t.Fatalf("seed %d tick %d: wheel fired %+v, reference %+v", seed, tick, got.fired[n0:], ref.fired[n0:])
			}
		}
		if got.stale != ref.stale {
			t.Fatalf("seed %d: wheel dropped %d stale events, reference %d", seed, got.stale, ref.stale)
		}
		if got.stale == 0 || groups == 0 || mixed == 0 || far == 0 {
			t.Fatalf("seed %d: %d stale, %d repeated (kind, slot) entries (%d of mixed generation), %d far follow-ups — the script exercised too little",
				seed, got.stale, groups, mixed, far)
		}
		t.Logf("seed %d: %d fired, %d stale, %d repeated (kind, slot) entries (%d mixed), %d far, %d pending",
			seed, len(got.fired), got.stale, groups, mixed, far, w.depth)
	}
}
