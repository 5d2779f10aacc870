package live

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}

	var g Gauge
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
	if got := g.Max(); got != 5 {
		t.Errorf("gauge max = %d, want 5", got)
	}
	g.Set(10)
	if g.Value() != 10 || g.Max() != 10 {
		t.Errorf("after Set(10): value=%d max=%d", g.Value(), g.Max())
	}
}

func TestManualClock(t *testing.T) {
	base := time.Unix(100, 0)
	c := NewManualClock(base)
	if !c.Now().Equal(base) {
		t.Fatalf("Now = %v, want %v", c.Now(), base)
	}
	c.Advance(1500 * time.Millisecond)
	if got := c.Now().Sub(base); got != 1500*time.Millisecond {
		t.Errorf("advanced %v, want 1.5s", got)
	}
}

// TestHistogramMatchesObs pins the live histogram to the virtual-time
// obs.Histogram: same samples, same bucket math, so quantile estimates must
// agree wherever obs's min/max clamp doesn't engage.
func TestHistogramMatchesObs(t *testing.T) {
	var h Histogram
	ref := obs.NewHistogram()
	samples := []float64{0.01, 0.02, 0.02, 0.5, 1.2, 3.7, 3.7, 42, 800, 12000}
	for _, v := range samples {
		h.Observe(v)
		ref.Observe(v)
	}
	if h.Count() != ref.Count() {
		t.Fatalf("count %d vs obs %d", h.Count(), ref.Count())
	}
	if math.Abs(h.Sum()-ref.Sum()) > 1e-9 {
		t.Fatalf("sum %g vs obs %g", h.Sum(), ref.Sum())
	}
	// obs clamps to exact min/max; live clamps to bucket edges. Interior
	// quantiles take the same geometric-interpolation branch and must agree
	// exactly; tail quantiles may differ by at most one bucket's growth
	// factor g = 2^(1/4).
	if got, want := h.Quantile(0.50), ref.Percentile(50); math.Abs(got-want) > 1e-9*want {
		t.Errorf("q0.50: live %g, obs %g", got, want)
	}
	g := math.Exp(obs.HistogramLogGrowth())
	for _, q := range []float64{0.95, 0.99} {
		got, want := h.Quantile(q), ref.Percentile(q*100)
		if ratio := got / want; ratio < 1/g || ratio > g {
			t.Errorf("q%.2f: live %g vs obs %g beyond one bucket (ratio %g)", q, got, want, ratio)
		}
	}
}

func TestHistogramEmptyAndEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("empty histogram not zero")
	}
	h.Observe(5)
	if got := h.Quantile(0); got > 5 || got <= 0 {
		t.Errorf("q0 = %g", got)
	}
	if got := h.Quantile(1); got < 5 {
		t.Errorf("q1 = %g", got)
	}
	snap := h.Snap()
	if snap.Count != 1 || snap.Sum != 5 {
		t.Errorf("snap = %+v", snap)
	}
}

func TestObserveSince(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	var h Histogram
	start := c.Now()
	c.Advance(250 * time.Millisecond)
	ms := h.ObserveSince(c, start)
	if ms != 250 {
		t.Errorf("ObserveSince = %g ms, want 250", ms)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
}

// TestConcurrentStress hammers every metric type from many goroutines while
// snapshots are taken concurrently; run under -race this is the package's
// core safety proof.
func TestConcurrentStress(t *testing.T) {
	reg := NewRegistry()
	gm := NewGuardMetrics(Wall())
	reg.AddCollector(gm)
	const workers = 8
	const iters = 2000

	var writersWG, scrapersWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scrapers.
	for s := 0; s < 2; s++ {
		scrapersWG.Add(1)
		go func() {
			defer scrapersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				var sb safeDiscard
				if err := snap.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	// Concurrent writers.
	for w := 0; w < workers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			c := reg.Counter("stress.events")
			g := reg.Gauge("stress.depth")
			h := reg.Histogram("stress.lat_ms")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%13) * 0.25)
				tok := gm.Enter(GuardOp(i % int(numGuardOps)))
				tok.Acquired()
				tok.Release()
				g.Add(-1)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	scrapersWG.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["stress.events"]; got != workers*iters {
		t.Errorf("events = %d, want %d", got, workers*iters)
	}
	if got := snap.Histograms["stress.lat_ms"].Count; got != workers*iters {
		t.Errorf("hist count = %d, want %d", got, workers*iters)
	}
	if got := snap.Gauges["stress.depth"].Value; got != 0 {
		t.Errorf("depth after drain = %d, want 0", got)
	}
}

// safeDiscard is an io.Writer usable from the race detector's perspective
// without sharing (each scraper builds its own).
type safeDiscard struct{ n int }

func (d *safeDiscard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
