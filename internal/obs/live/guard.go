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

	// Group-commit batching (engine.Guard with a GroupCommitPolicy): one
	// sample per flushed batch, plus a counter per flush reason.
	batchSize  Histogram // members per batch
	batchWait  Histogram // ms from the leader's arrival to the flush
	flushFull  Counter   // batches flushed because MaxBatch was reached
	flushTimer Counter   // batches flushed because MaxWait expired

	// Striped read latching: committed-page cache traffic. A hit is a
	// read served without touching the kernel mutex; a miss fell through
	// to the exclusive path.
	cacheHits   Counter
	cacheMisses Counter
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

// Release records that the mutex is about to be released, observing the
// hold time.
func (t *GuardToken) Release() {
	if t.m == nil {
		return
	}
	t.m.hold[t.op].Observe(float64(t.m.clock.Now().Sub(t.acq)) / float64(time.Millisecond))
}

// ObserveCommitBatch records one flushed group-commit batch: its size, how
// long the batch window stayed open (ms), and why it closed (full = MaxBatch
// reached; otherwise the MaxWait timer expired). Nil-safe.
func (m *GuardMetrics) ObserveCommitBatch(size int, waitMs float64, full bool) {
	if m == nil {
		return
	}
	m.batchSize.Observe(float64(size))
	m.batchWait.Observe(waitMs)
	if full {
		m.flushFull.Inc()
	} else {
		m.flushTimer.Inc()
	}
}

// ReadCacheHit records a read served from the striped committed-page cache
// without entering the kernel mutex. Nil-safe.
func (m *GuardMetrics) ReadCacheHit() {
	if m == nil {
		return
	}
	m.cacheHits.Inc()
}

// ReadCacheMiss records a read that missed the stripe cache and fell through
// to the exclusive kernel path. Nil-safe.
func (m *GuardMetrics) ReadCacheMiss() {
	if m == nil {
		return
	}
	m.cacheMisses.Inc()
}

// CommitBatchSize returns the batch-size histogram (do not mutate).
func (m *GuardMetrics) CommitBatchSize() *Histogram { return &m.batchSize }

// CommitBatchWait returns the batch-window histogram in ms (do not mutate).
func (m *GuardMetrics) CommitBatchWait() *Histogram { return &m.batchWait }

// FlushFull reports batches flushed because MaxBatch was reached.
func (m *GuardMetrics) FlushFull() int64 { return m.flushFull.Value() }

// FlushTimer reports batches flushed because MaxWait expired.
func (m *GuardMetrics) FlushTimer() int64 { return m.flushTimer.Value() }

// ReadCacheHits reports reads served from the stripe cache.
func (m *GuardMetrics) ReadCacheHits() int64 { return m.cacheHits.Value() }

// ReadCacheMisses reports reads that fell through to the kernel.
func (m *GuardMetrics) ReadCacheMisses() int64 { return m.cacheMisses.Value() }

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
	if m.batchSize.Count() != 0 {
		s.PutHist("guard.commit_batch.size", m.batchSize.Snap())
		s.PutHist("guard.commit_batch.wait_ms", m.batchWait.Snap())
		s.PutCounter("guard.commit_batch.flush_full", m.flushFull.Value())
		s.PutCounter("guard.commit_batch.flush_timer", m.flushTimer.Value())
	}
	if hits, misses := m.cacheHits.Value(), m.cacheMisses.Value(); hits != 0 || misses != 0 {
		s.PutCounter("guard.readcache.hits", hits)
		s.PutCounter("guard.readcache.misses", misses)
	}
}
