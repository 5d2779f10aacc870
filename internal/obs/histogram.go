package obs

import (
	"math"

	"repro/internal/sim"
)

// Histogram bucket layout: fixed log-scaled buckets so that percentile
// estimates are reproducible across runs (no reservoir sampling, no
// randomness). Bucket i covers (lo·g^i, lo·g^(i+1)]; with lo = 1 µs
// (0.001 ms), g = 2^(1/4) and 160 buckets the range spans 0.001 ms to
// ~10^9 ms with a worst-case relative error of g-1 ≈ 19 % — and exact
// min/max tracking clamps the estimate so degenerate distributions
// (empty, single-valued) report exactly.
const (
	histLo      = 1e-3 // lower bound of bucket 0, in the caller's unit (ms)
	histBuckets = 160
)

var histLogGrowth = math.Log(2) / 4 // ln g for g = 2^(1/4)

// Histogram accumulates point samples into fixed log-scaled buckets and
// reports deterministic quantile estimates. The zero value is NOT ready;
// create one with NewHistogram (or Registry.Histogram).
type Histogram struct {
	buckets [histBuckets]int64
	tally   sim.Tally
}

// NewHistogram returns an empty histogram with the default latency
// bucketing (intended for millisecond values).
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a sample to its bucket index. The clamp happens in float
// space: v/histLo can overflow to +Inf for huge samples, and converting
// +Inf to int is platform-defined (negative on amd64), which would drop
// such samples into bucket 0.
func bucketOf(v float64) int {
	if v <= histLo {
		return 0
	}
	f := math.Floor((math.Log(v) - math.Log(histLo)) / histLogGrowth)
	if !(f > 0) { // also catches NaN
		return 0
	}
	if f >= histBuckets-1 {
		return histBuckets - 1
	}
	return int(f)
}

// lowerBound reports the lower edge of bucket i.
func lowerBound(i int) float64 {
	return histLo * math.Exp(float64(i)*histLogGrowth)
}

// The bucket layout is shared with the runtime metrics layer
// (internal/obs/live), whose lock-free histograms must bucket wall-clock
// samples exactly like this package buckets virtual-time samples so the two
// layers' percentiles are comparable. These exports are the single source
// of truth for that math.

// HistogramBucketCount is the number of fixed log-scaled buckets every
// histogram in this repository uses.
const HistogramBucketCount = histBuckets

// HistogramBucketIndex maps a sample (in ms) to its bucket index.
func HistogramBucketIndex(v float64) int { return bucketOf(v) }

// HistogramBucketLower reports the lower edge of bucket i, in ms.
func HistogramBucketLower(i int) float64 { return lowerBound(i) }

// HistogramLogGrowth reports ln g for the bucket growth factor g = 2^(1/4),
// the constant behind geometric interpolation within a bucket.
func HistogramLogGrowth() float64 { return histLogGrowth }

// HistogramInterpolate walks per-bucket counts in bucket order until the
// cumulative count reaches rank, then interpolates geometrically inside
// that bucket. It reports false when the counts run out first. The caller
// clamps the estimate to its own range.
func HistogramInterpolate(counts []int64, rank float64) (float64, bool) {
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			frac := (rank - cum) / float64(c)
			return lowerBound(i) * math.Exp(frac*histLogGrowth), true
		}
		cum = next
	}
	return 0, false
}

// Observe records one sample. Non-positive samples land in the lowest
// bucket (their exact values still shape Min/Mean).
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketOf(v)]++
	h.tally.Add(v)
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.tally.Count() }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 { return h.tally.Sum() }

// Mean reports the exact sample mean (0 if empty).
func (h *Histogram) Mean() float64 { return h.tally.Mean() }

// Min reports the smallest sample (0 if empty).
func (h *Histogram) Min() float64 { return h.tally.Min() }

// Max reports the largest sample (0 if empty).
func (h *Histogram) Max() float64 { return h.tally.Max() }

// Percentile estimates the p-th percentile (p in [0,100]) by geometric
// interpolation within the bucket where the cumulative count crosses the
// rank, clamped to the observed [Min, Max]. An empty histogram reports 0.
func (h *Histogram) Percentile(p float64) float64 {
	n := h.tally.Count()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.tally.Min()
	}
	if p >= 100 {
		return h.tally.Max()
	}
	v, ok := HistogramInterpolate(h.buckets[:], p/100*float64(n))
	if !ok {
		return h.tally.Max()
	}
	return min(max(v, h.tally.Min()), h.tally.Max())
}
