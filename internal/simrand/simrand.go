// Package simrand provides deterministic, forkable random-number streams
// for the simulator.
//
// Every stochastic component of the campaign — shadowing, cell load, test
// noise, handover durations — draws from its own named stream, forked from
// a single campaign seed. Forking is stable: the stream named
// "ran/cell42/load" produces the same sequence regardless of how many other
// streams exist or in which order they were created. This is what makes a
// whole campaign a pure function of (Config, seed), which in turn is what
// every regression test in this repository leans on.
package simrand

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a named deterministic random stream.
//
// The zero value is not usable; construct with New or Fork.
//
// A stream is seeded on its first draw, not when it is made: seeding a
// math/rand source costs a ~4.9 KB state table, and many streams (a
// test's parent stream, for one) are only ever forked from. The seed
// the stream will draw from is fixed at construction, and Fork never
// draws, so when the seeding happens cannot change any sequence.
type Source struct {
	rng        *rand.Rand // nil until the first draw
	streamSeed int64      // what rng is seeded with
	seed       int64      // the root seed, which children derive from
	name       string
}

// New returns the root stream for a campaign seed.
func New(seed int64) *Source {
	return &Source{streamSeed: seed, seed: seed, name: ""}
}

// Fork derives an independent child stream. The child's sequence depends
// only on the root seed and the full path of names from the root, never on
// sibling streams or draw order.
func (s *Source) Fork(name string) *Source {
	full := s.name + "/" + name
	h := fnv.New64a()
	h.Write([]byte(full))
	return &Source{streamSeed: s.seed ^ int64(h.Sum64()), seed: s.seed, name: full}
}

// r returns the stream's generator, seeding it on first use.
func (s *Source) r() *rand.Rand {
	if s.rng == nil {
		s.seedStream()
	}
	return s.rng
}

// seedStream builds the generator the first draw needs.
//
//lint:cold — runs once per stream, at its first draw; the draws themselves reuse the generator
func (s *Source) seedStream() {
	s.rng = rand.New(rand.NewSource(s.streamSeed))
}

// Float64 draws from [0, 1).
func (s *Source) Float64() float64 { return s.r().Float64() }

// Int63 draws a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.r().Int63() }

// Normal draws from a Gaussian with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r().NormFloat64()
}

// LogNormal draws a value whose logarithm is Normal(mu, sigma).
// The median of the distribution is exp(mu).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMedian draws from a lognormal parameterized by its median and
// the sigma of the underlying normal — the natural way to express the
// paper's "median handover duration 53 ms with a long tail".
func (s *Source) LogNormalMedian(median, sigma float64) float64 {
	return s.LogNormal(math.Log(median), sigma)
}

// Bool reports true with probability p.
func (s *Source) Bool(p float64) bool { return s.r().Float64() < p }

// Uniform draws from [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r().Float64()
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to the weight. Zero or negative weights are never picked unless all
// weights are non-positive, in which case Pick returns 0.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := s.r().Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// OU is a discrete-time Ornstein–Uhlenbeck process, used for slowly
// varying quantities such as cell background load: it reverts toward a
// mean with configurable correlation time while wandering with Gaussian
// noise, clamped to [Min, Max].
type OU struct {
	Mean    float64 // long-run mean
	Revert  float64 // per-step reversion rate in (0, 1]
	Sigma   float64 // per-step noise standard deviation
	Min     float64 // lower clamp
	Max     float64 // upper clamp
	value   float64
	started bool
}

// Step advances the process one tick and returns the new value.
func (p *OU) Step(s *Source) float64 {
	if !p.started {
		p.value = clamp(s.Normal(p.Mean, p.Sigma*3), p.Min, p.Max)
		p.started = true
		return p.value
	}
	p.value += p.Revert*(p.Mean-p.value) + s.Normal(0, p.Sigma)
	p.value = clamp(p.value, p.Min, p.Max)
	return p.value
}

// Seed initializes the process at the given value (clamped) instead of a
// random draw around the mean.
func (p *OU) Seed(v float64) {
	p.value = clamp(v, p.Min, p.Max)
	p.started = true
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
