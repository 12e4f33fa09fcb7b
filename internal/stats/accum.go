package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Accumulator is an incremental summary: running count, sum, min, and
// max over a stream of observations. It replaces the materialize-then-
// Summarize pattern for probes that would otherwise build an O(n) slice
// just to reduce it — at 100k hosts those slices were the dominant
// per-probe allocation. The zero value is ready to use.
type Accumulator struct {
	n        int
	sum      float64
	min, max float64
}

// Add folds one observation into the summary.
func (a *Accumulator) Add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
}

// Count returns the number of observations.
func (a *Accumulator) Count() int { return a.n }

// Sum returns the running sum.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the running mean (NaN when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// Min returns the smallest observation (NaN when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation (NaN when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// SplitMix64 is Steele, Lea and Flood's splitmix64 generator as an
// 8-byte rand.Source64: what a per-node stream runs on where math/rand's
// own source would carry 4.9 KB of state for every node. The zero value
// is the stream of seed 0.
type SplitMix64 struct{ state uint64 }

var _ rand.Source64 = (*SplitMix64)(nil)

// NewSplitMix64 returns the stream seeded with seed.
func NewSplitMix64(seed int64) *SplitMix64 { return &SplitMix64{state: uint64(seed)} }

// Uint64 implements rand.Source64.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source: the top 63 bits of the next Uint64.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// Reservoir is a bounded-memory streaming quantile sketch: classic
// reservoir sampling (Vitter's algorithm R) over at most K observations,
// with quantiles read off the sample. Randomness comes from a private
// seeded splitmix64 stream, so a Reservoir is deterministic for a given
// (seed, input sequence) and never perturbs any simulation RNG.
type Reservoir struct {
	k   int
	n   int64
	buf []float64
	rng SplitMix64
}

// NewReservoir creates a sketch keeping at most k samples (k <= 0
// defaults to 1024).
func NewReservoir(k int, seed int64) *Reservoir {
	if k <= 0 {
		k = 1024
	}
	return &Reservoir{k: k, rng: SplitMix64{state: uint64(seed)*0x9E3779B97F4A7C15 + 1}}
}

// Add offers one observation to the sketch.
func (r *Reservoir) Add(v float64) {
	r.n++
	if len(r.buf) < r.k {
		r.buf = append(r.buf, v)
		return
	}
	// Replace a random kept sample with probability k/n.
	if j := int64(r.rng.Uint64() % uint64(r.n)); j < int64(r.k) {
		r.buf[j] = v
	}
}

// Count returns the number of observations offered (not kept).
func (r *Reservoir) Count() int64 { return r.n }

// Percentile returns the p-th percentile (0..100) of the kept sample,
// with linear interpolation; NaN when empty. For n <= K the sample is
// exact, beyond that it is a uniform subsample.
func (r *Reservoir) Percentile(p float64) float64 {
	if len(r.buf) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(r.buf))
	copy(s, r.buf)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
