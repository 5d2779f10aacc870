package live

import (
	"time"
)

// GuardOp classifies the engine.Guard entry points for per-op contention
// profiling. Every Guard method maps to one of these; rarely-contended
// bookkeeping calls share GuardOther.
type GuardOp int

const (
	GuardBegin GuardOp = iota
	GuardRead
	GuardWrite
	GuardCommit
	GuardAbort
	GuardRecover
	GuardCheckpoint
	GuardMerge
	GuardOther

	numGuardOps
)

var guardOpNames = [numGuardOps]string{
	GuardBegin:      "begin",
	GuardRead:       "read",
	GuardWrite:      "write",
	GuardCommit:     "commit",
	GuardAbort:      "abort",
	GuardRecover:    "recover",
	GuardCheckpoint: "checkpoint",
	GuardMerge:      "merge",
	GuardOther:      "other",
}

// String returns the lower-case op name used in metric names.
func (op GuardOp) String() string {
	if op < 0 || op >= numGuardOps {
		return "invalid"
	}
	return guardOpNames[op]
}

// GuardMetrics profiles contention on one engine.Guard: per-op histograms
// of mutex wait time (Enter → Acquired) and hold time (Acquired → Release),
// plus a gauge of threads currently waiting for the lock. All methods are
// lock-free and safe for concurrent use; a nil *GuardMetrics is a valid
// no-op sink so Guard can carry one unconditionally.
//
// GuardMetrics implements Collector; register it on a Registry to expose
// guard.<op>.wait_ms / guard.<op>.hold_ms summaries and the guard.waiters
// gauge through /metrics.
type GuardMetrics struct {
	clock   Clock
	waiters Gauge
	wait    [numGuardOps]Histogram
	hold    [numGuardOps]Histogram
}

// NewGuardMetrics returns guard metrics reading time from clock (Wall() in
// production, a ManualClock in tests).
func NewGuardMetrics(clock Clock) *GuardMetrics {
	return &GuardMetrics{clock: clock}
}

// GuardToken tracks one passage through the guard's mutex. The zero value
// (returned by a nil GuardMetrics) makes Acquired and Release no-ops.
type GuardToken struct {
	m     *GuardMetrics
	op    GuardOp
	enter time.Time
	acq   time.Time
	held  time.Duration // the hold before the last Pause
}

// Enter records that a thread is about to contend for the guard's mutex.
// Call before Lock; pair with Acquired after Lock and Release before
// Unlock.
func (m *GuardMetrics) Enter(op GuardOp) GuardToken {
	if m == nil {
		return GuardToken{}
	}
	m.waiters.Add(1)
	return GuardToken{m: m, op: op, enter: m.clock.Now()}
}

// Acquired records that the mutex was obtained, observing the wait time.
func (t *GuardToken) Acquired() {
	if t.m == nil {
		return
	}
	t.m.waiters.Add(-1)
	t.acq = t.m.clock.Now()
	t.m.wait[t.op].Observe(float64(t.acq.Sub(t.enter)) / float64(time.Millisecond))
}

// Pause records that the mutex is about to be released before the
// operation ends (a commit's log force outside it, or its wait for
// another's). The time until Resume is not hold time.
func (t *GuardToken) Pause() {
	if t.m == nil {
		return
	}
	t.held += t.m.clock.Now().Sub(t.acq)
}

// Resume records that the mutex is held again after Pause.
func (t *GuardToken) Resume() {
	if t.m == nil {
		return
	}
	t.acq = t.m.clock.Now()
}

// Release records that the mutex is about to be released, observing the
// hold time: one sample per operation, the sum of its stretches under the
// mutex.
func (t *GuardToken) Release() {
	if t.m == nil {
		return
	}
	t.m.hold[t.op].Observe(float64(t.held+t.m.clock.Now().Sub(t.acq)) / float64(time.Millisecond))
}

// Waiters reports the number of threads currently between Enter and
// Acquired.
func (m *GuardMetrics) Waiters() int64 { return m.waiters.Value() }

// Wait returns the wait-time histogram for op (do not mutate).
func (m *GuardMetrics) Wait(op GuardOp) *Histogram { return &m.wait[op] }

// Hold returns the hold-time histogram for op (do not mutate).
func (m *GuardMetrics) Hold(op GuardOp) *Histogram { return &m.hold[op] }

// Collect implements Collector: ops that were never entered are skipped so
// an idle engine does not flood /metrics with empty summaries.
func (m *GuardMetrics) Collect(s *Snapshot) {
	s.PutGauge("guard.waiters", GaugeSnap{Value: m.waiters.Value(), Max: m.waiters.Max()})
	for op := GuardOp(0); op < numGuardOps; op++ {
		if m.wait[op].Count() != 0 {
			s.PutHist("guard."+op.String()+".wait_ms", m.wait[op].Snap())
		}
		if m.hold[op].Count() != 0 {
			s.PutHist("guard."+op.String()+".hold_ms", m.hold[op].Snap())
		}
	}
}
