// Package live is the runtime (wall-clock) observability layer — the
// concurrent sibling of the deterministic, virtual-time internal/obs.
//
// internal/obs instruments what happens *inside* a simulation: everything is
// single-threaded, keyed to virtual time, and byte-reproducible. This
// package instruments the machinery that *runs* simulations and kernels —
// engine.Guard's mutex, internal/runpool's workers, long sweeps — where the
// interesting quantities (lock wait time, worker busy time, scrape-time
// queue depth) only exist on the host clock and under real concurrency.
// Everything here is safe for concurrent use and built on atomics: counters
// and gauges are single atomic words, histograms are lock-free arrays of
// atomic buckets sharing the exact bucket math of obs.Histogram, so the two
// layers' percentiles are directly comparable.
//
// Time is read through the Clock interface. Production code uses Wall()
// (the one place in internal/ where the host clock is legal — simlint's
// D001 scope excludes this package, and only this package); tests use a
// ManualClock, which makes the same types deterministic under virtual time.
//
// The runtime layer must add zero nondeterminism to deterministic outputs:
// nothing in this package is ever rendered into experiment tables, crash
// reports, or obs snapshots. It is exported only through the live HTTP
// surface (see Serve: Prometheus-text /metrics, /debug/pprof, /progress),
// which is a wall-clock measurement by design.
package live

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Clock is the time source. The wall clock is the production
// implementation; virtual-time tests substitute a ManualClock so the same
// metric types produce deterministic values.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Wall returns the host wall clock.
func Wall() Clock { return wallClock{} }

// ManualClock is a settable clock for deterministic tests. It is safe for
// concurrent use.
type ManualClock struct {
	ns atomic.Int64
}

// NewManualClock returns a manual clock at t.
func NewManualClock(t time.Time) *ManualClock {
	c := &ManualClock{}
	c.ns.Store(t.UnixNano())
	return c
}

// Now reports the clock's current instant.
func (c *ManualClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// Counter is a monotonically-increasing event count, safe for concurrent
// use. The zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous quantity (queue depth, in-flight operations),
// safe for concurrent use. Unlike obs.Gauge it is not time-weighted: the
// runtime layer has no virtual clock to integrate over, so it tracks the
// current value and the high-water mark instead. The zero value is ready.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.bumpMax(v)
}

// Add adjusts the value by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 {
	v := g.v.Add(delta)
	g.bumpMax(v)
	return v
}

func (g *Gauge) bumpMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max reports the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a lock-free log-bucketed latency histogram for millisecond
// samples. It reuses the fixed bucket layout of obs.Histogram (the bucket
// math is exported by internal/obs precisely for this), so percentiles from
// the runtime layer line up with the virtual-time layer's. The zero value
// is ready; all methods are safe for concurrent use.
//
// Unlike obs.Histogram it does not track exact min/max — exact extrema
// would need a CAS pair per sample on the hot path — so quantile estimates
// clamp to bucket edges instead of observed extrema.
type Histogram struct {
	buckets [obs.HistogramBucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample (in ms).
func (h *Histogram) Observe(v float64) {
	h.buckets[obs.HistogramBucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		cur := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if h.sum.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time from start to clock.Now, in ms, and
// returns it.
func (h *Histogram) ObserveSince(clock Clock, start time.Time) float64 {
	ms := float64(clock.Now().Sub(start)) / float64(time.Millisecond)
	h.Observe(ms)
	return ms
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of all samples. Note that under concurrent observers
// the low bits depend on accumulation order; deterministic tests drive the
// histogram single-threaded.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-th quantile (q in [0,1]) by the same geometric
// interpolation obs.Histogram uses, clamped to the edges of the occupied
// bucket range. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	var counts [obs.HistogramBucketCount]int64
	first, last := -1, -1
	for i := range h.buckets {
		if counts[i] = h.buckets[i].Load(); counts[i] != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0 // count raced ahead of the bucket write
	}
	lo := obs.HistogramBucketLower(first)
	hi := obs.HistogramBucketLower(last) * math.Exp(obs.HistogramLogGrowth())
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	v, ok := obs.HistogramInterpolate(counts[:], q*float64(n))
	if !ok {
		return hi
	}
	return min(max(v, lo), hi)
}

// Snap captures the histogram's summary statistics at one instant. Under
// concurrent observers the fields are each atomically read but not mutually
// consistent — fine for scraping, not for invariants.
func (h *Histogram) Snap() HistSnap {
	return HistSnap{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// HistSnap is the point-in-time summary of one histogram.
type HistSnap struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}
