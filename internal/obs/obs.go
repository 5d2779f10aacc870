// Package obs is the simulator's observability layer: a deterministic
// metrics registry (named counters, time-weighted gauges, log-bucketed
// latency histograms, and lazily-evaluated stat functions) plus a
// span-based tracer that emits Chrome trace-event JSON keyed to virtual
// time (see trace.go).
//
// Everything in this package is deterministic: snapshots iterate names in
// sorted order, histograms use fixed bucket boundaries, and trace events
// are emitted in simulation order, so two runs with the same seed produce
// byte-identical metrics snapshots and trace files.
//
// The registry is always cheap enough to leave on — gauges adopt the
// sim.TimeWeighted trackers components already maintain, and stat
// functions cost nothing until Snapshot is called. Tracing defaults to a
// no-op implementation so the hot path pays only a nil-free interface
// check when it is off.
package obs

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Counter is a monotonically-increasing event count.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.v += n }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a piecewise-constant quantity tracked over virtual time. It
// wraps a sim.TimeWeighted so a component's existing tracker can be
// adopted into the registry without double bookkeeping.
type Gauge struct{ tw *sim.TimeWeighted }

// Set replaces the gauge value as of the current virtual time.
func (g *Gauge) Set(v float64) { g.tw.Set(v) }

// Adjust adds delta as of the current virtual time.
func (g *Gauge) Adjust(delta float64) { g.tw.Adjust(delta) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.tw.Value() }

// Mean reports the time-weighted mean since creation.
func (g *Gauge) Mean() float64 { return g.tw.Mean() }

// Max reports the largest value ever set.
func (g *Gauge) Max() float64 { return g.tw.Max() }

// Registry is a deterministic metrics namespace for one simulation run.
// Metrics are created on demand and identified by dotted names
// ("cache.used", "disk.data0.busy", "txn.completion.ms").
type Registry struct {
	eng      *sim.Engine
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
	stats    map[string]float64
}

// NewRegistry returns an empty registry bound to eng (used to create
// time-weighted gauges at the current virtual time).
func NewRegistry(eng *sim.Engine) *Registry {
	return &Registry{
		eng:      eng,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
		stats:    make(map[string]float64),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it (backed by a
// fresh sim.TimeWeighted) if needed.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{tw: sim.NewTimeWeighted(r.eng)}
		r.gauges[name] = g
	}
	return g
}

// RegisterGauge adopts an existing time-weighted tracker as the gauge with
// the given name, so components that already track a quantity do not pay
// for a second integrator. It panics if the name is already registered to
// a different tracker.
func (r *Registry) RegisterGauge(name string, tw *sim.TimeWeighted) *Gauge {
	if g, ok := r.gauges[name]; ok {
		if g.tw != tw {
			panic(fmt.Sprintf("obs: gauge %q already registered", name))
		}
		return g
	}
	g := &Gauge{tw: tw}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the default latency bucketing if needed.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Func registers a stat evaluated lazily at snapshot time; use it to
// expose statistics a component already maintains (utilizations, served
// counts) at zero hot-path cost. Re-registering a name replaces it.
func (r *Registry) Func(name string, fn func() float64) {
	r.funcs[name] = fn
}

// PutStat records a point-in-time stat value directly (model statistics
// copied in at the end of a run).
func (r *Registry) PutStat(name string, v float64) {
	r.stats[name] = v
}

// GaugeSnap is the snapshot of one gauge.
type GaugeSnap struct {
	Value float64 `json:"value"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// HistSnap is the snapshot of one histogram.
type HistSnap struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every metric in a registry. Its JSON
// encoding is deterministic: encoding/json emits map keys in sorted order.
type Snapshot struct {
	NowMs      float64              `json:"nowMs"`
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]GaugeSnap `json:"gauges"`
	Histograms map[string]HistSnap  `json:"histograms"`
	Stats      map[string]float64   `json:"stats"`
}

// Snapshot captures every metric at the current virtual time. Registered
// stat functions are evaluated here and merged with PutStat values.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		NowMs:      r.eng.Now().ToMs(),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnap, len(r.gauges)),
		Histograms: make(map[string]HistSnap, len(r.hists)),
		Stats:      make(map[string]float64, len(r.stats)+len(r.funcs)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnap{Value: g.Value(), Mean: g.Mean(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSnap{
			Count: h.Count(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Percentile(50),
			P95:   h.Percentile(95),
			P99:   h.Percentile(99),
		}
	}
	for name, v := range r.stats {
		s.Stats[name] = v
	}
	for name, fn := range r.funcs {
		s.Stats[name] = fn()
	}
	return s
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Sink bundles the registry with the (swappable) tracer; components hold a
// *Sink and read the tracer through it so tracing can be enabled after the
// components are built but before the run starts.
type Sink struct {
	Reg *Registry
	tr  Tracer
}

// NewSink returns a sink with a fresh registry and the no-op tracer.
func NewSink(eng *sim.Engine) *Sink {
	return &Sink{Reg: NewRegistry(eng), tr: Nop()}
}

// Tracer reports the current tracer (never nil).
func (s *Sink) Tracer() Tracer { return s.tr }

// SetTracer replaces the tracer; nil restores the no-op tracer.
func (s *Sink) SetTracer(t Tracer) {
	if t == nil {
		t = Nop()
	}
	s.tr = t
}

// Tracing reports whether a real tracer is attached; hot paths check this
// before building span arguments.
func (s *Sink) Tracing() bool { return s.tr.Enabled() }
