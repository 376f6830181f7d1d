package main

import (
	"math"
	"math/rand"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer is noise, so it is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether at least minBeyond samples lie beyond it. The median (p = 0.5)
// of any sample of 21 or more qualifies; p99 needs at least 1000 samples.
// xs is sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx], len(xs)-1-idx >= minBeyond
}

// median is the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s by
// inverse-CDF lookup. Unlike math/rand.Zipf it accepts any s > 0 and its
// draws depend only on the cumulative table and the uniform stream, so a
// given (seed, n, s) always yields the same sequence.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipf{cdf: cdf}
}

// draw returns the next rank from r.
func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// streamRand returns a generator for one named input stream of a seeded
// workload: the same (seed, stream, index) always gives the same draws,
// whatever else the workload generated before.
func streamRand(seed int64, stream string, index int) *rand.Rand {
	h := uint64(1469598103934665603)
	mix := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	for i := 0; i < 8; i++ {
		mix(byte(uint64(seed) >> (8 * i)))
	}
	for i := 0; i < len(stream); i++ {
		mix(stream[i])
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(index) >> (8 * i)))
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}
