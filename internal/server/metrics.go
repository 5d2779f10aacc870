package server

import (
	"repro/internal/obs/live"
)

// metricOp indexes the per-op histogram arrays in Metrics. It mirrors the
// protocol opcodes (metricOp(op-1) for a valid op byte); mWrite, the retired
// OpWrite's slot, is never observed.
type metricOp int

const (
	mBegin metricOp = iota
	mRead
	mWrite
	mCommit
	mAbort
	mStats

	numMetricOps
)

var metricOpNames = [numMetricOps]string{
	mBegin:  "begin",
	mRead:   "read",
	mWrite:  "write",
	mCommit: "commit",
	mAbort:  "abort",
	mStats:  "stats",
}

// Metrics is the server's runtime instrumentation: per-op service-time
// histograms, an in-flight session gauge, and deadlock/busy/protocol error
// counters. The request count is the histograms' total count. All methods
// are lock-free and safe for concurrent use; a nil *Metrics is a valid no-op
// sink.
//
// Metrics implements live.Collector; register it on a live.Registry to
// expose server.<op>.ms summaries, the server.sessions gauge, and the
// counters through /metrics.
type Metrics struct {
	clock     live.Clock
	sessions  live.Gauge
	deadlocks live.Counter
	busies    live.Counter
	protoErrs live.Counter
	serviceMs [numMetricOps]live.Histogram
}

// NewMetrics returns server metrics reading time from clock (live.Wall() in
// production, a live.ManualClock in tests).
func NewMetrics(clock live.Clock) *Metrics {
	return &Metrics{clock: clock}
}

// SessionStarted records a session entering service and returns the current
// in-flight count.
func (m *Metrics) SessionStarted() int64 {
	if m == nil {
		return 0
	}
	return m.sessions.Add(1)
}

// SessionEnded records a session leaving service.
func (m *Metrics) SessionEnded() {
	if m != nil {
		m.sessions.Add(-1)
	}
}

// Sessions reports the in-flight session count.
func (m *Metrics) Sessions() int64 {
	if m == nil {
		return 0
	}
	return m.sessions.Value()
}

// MaxSessions reports the session high-water mark.
func (m *Metrics) MaxSessions() int64 {
	if m == nil {
		return 0
	}
	return m.sessions.Max()
}

// Requests reports the total request count: every request served is
// observed by one per-op service-time histogram.
func (m *Metrics) Requests() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for op := range m.serviceMs {
		n += m.serviceMs[op].Count()
	}
	return n
}

// observe records one served request of op kind taking ms milliseconds.
func (m *Metrics) observe(op metricOp, ms float64) {
	if m == nil || op < 0 || op >= numMetricOps {
		return
	}
	m.serviceMs[op].Observe(ms)
}

// deadlock counts one StatusDeadlock response.
func (m *Metrics) deadlock() {
	if m != nil {
		m.deadlocks.Inc()
	}
}

// busy counts one StatusBusy response (kernel admission limit).
func (m *Metrics) busy() {
	if m != nil {
		m.busies.Inc()
	}
}

// protoError counts one malformed frame or request.
func (m *Metrics) protoError() {
	if m != nil {
		m.protoErrs.Inc()
	}
}

// ServiceHist returns the service-time histogram for the protocol op (do
// not mutate); nil for unknown ops.
func (m *Metrics) ServiceHist(op byte) *live.Histogram {
	if m == nil || op < OpBegin || op > OpStats {
		return nil
	}
	return &m.serviceMs[metricOp(op-1)]
}

// Collect implements live.Collector: ops never served are skipped so an
// idle server does not flood /metrics with empty summaries.
func (m *Metrics) Collect(s *live.Snapshot) {
	s.PutGauge("server.sessions", live.GaugeSnap{Value: m.sessions.Value(), Max: m.sessions.Max()})
	s.PutCounter("server.requests", m.Requests())
	s.PutCounter("server.deadlocks", m.deadlocks.Value())
	s.PutCounter("server.busy", m.busies.Value())
	s.PutCounter("server.proto_errors", m.protoErrs.Value())
	for op := metricOp(0); op < numMetricOps; op++ {
		if m.serviceMs[op].Count() != 0 {
			s.PutHist("server."+metricOpNames[op]+".ms", m.serviceMs[op].Snap())
		}
	}
}
