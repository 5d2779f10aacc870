package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

// The recovery kernels (internal/wal, internal/shadoweng, internal/diffeng)
// are pure and single-threaded by contract — simlint rule D004 bans sync
// primitives and goroutines inside them. Guard is their concurrency
// envelope: it serializes every kernel call behind one mutex and counts
// operations with obs counters, so the concurrent runtime sees exactly the
// call sequences the single-threaded kernels are proven against.

// Checkpointer is implemented by kernels with a checkpoint maintenance
// operation (the WAL manager).
type Checkpointer interface {
	Checkpoint() error
}

// Merger is implemented by kernels with a merge maintenance operation (the
// differential-file engine).
type Merger interface {
	Merge() error
}

// StatsSource is implemented by kernels that report internal counters.
type StatsSource interface {
	Stats() map[string]int64
}

// Journaled is implemented by kernels that can emit a structured recovery
// journal (internal/wal, internal/shadoweng, internal/diffeng). The sink is
// nil-safe: passing nil detaches the journal.
type Journaled interface {
	SetJournal(*obs.Journal)
}

// ErrUnsupported is returned by Guard maintenance methods when the wrapped
// kernel has no such operation.
var ErrUnsupported = fmt.Errorf("engine: operation not supported by this recovery kernel")

// Guard wraps a pure recovery kernel, making it safe for concurrent use.
// All kernel calls — transactional operations and maintenance alike — are
// serialized behind a single mutex, and per-operation atomic counters
// record the traffic the kernel absorbed.
type Guard struct {
	mu sync.Mutex
	rm RecoveryManager

	// mx is the optional runtime contention profile. It is attached with
	// SetMetrics through an atomic pointer so hot paths read it without
	// extending the guarded section; a nil profile makes every token
	// operation a no-op.
	mx atomic.Pointer[live.GuardMetrics]

	// journal is the guard's own copy of the attached recovery journal
	// (guarded by mu): backup-plane operations (Snapshot, Restore) are
	// guard-side, not kernel-side, so the guard emits their events itself.
	journal *obs.Journal

	// The op counters are live.Counters (single atomic words), NOT values
	// guarded by mu: hot paths increment them while holding the mutex,
	// but OpCounts snapshots them without it — scraping must never queue
	// behind the kernel.
	reads, writes live.Counter
	begins        live.Counter
	commits       live.Counter
	aborts        live.Counter
	recoveries    live.Counter
	checkpoints   live.Counter
	merges        live.Counter
}

// NewGuard wraps kernel rm. Wrapping an already-wrapped kernel returns it
// unchanged.
func NewGuard(rm RecoveryManager) *Guard {
	if g, ok := rm.(*Guard); ok {
		return g
	}
	return &Guard{rm: rm}
}

// Unwrap returns the pure kernel. Callers may use it only while no other
// goroutine touches the Guard (single-threaded drivers, quiesced engines).
func (g *Guard) Unwrap() RecoveryManager { return g.rm }

// Name identifies the wrapped kernel.
func (g *Guard) Name() string { return g.rm.Name() }

// Load populates page p before transactions run.
func (g *Guard) Load(p int64, data []byte) error {
	tok := g.mx.Load().Enter(live.GuardOther)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	return g.rm.Load(p, data)
}

// Begin starts transaction tid.
func (g *Guard) Begin(tid uint64) error {
	tok := g.mx.Load().Enter(live.GuardBegin)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.begins.Inc()
	return g.rm.Begin(tid)
}

// Read returns page p as seen by tid (which must be an active
// transaction).
func (g *Guard) Read(tid uint64, p int64) ([]byte, error) {
	tok := g.mx.Load().Enter(live.GuardRead)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.reads.Inc()
	return g.rm.Read(tid, p)
}

// Write replaces page p on behalf of tid.
func (g *Guard) Write(tid uint64, p int64, data []byte) error {
	tok := g.mx.Load().Enter(live.GuardWrite)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.writes.Inc()
	return g.rm.Write(tid, p, data)
}

// Commit makes tid durable.
func (g *Guard) Commit(tid uint64) error {
	tok := g.mx.Load().Enter(live.GuardCommit)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.commits.Inc()
	return g.rm.Commit(tid)
}

// Abort rolls tid back.
func (g *Guard) Abort(tid uint64) error {
	tok := g.mx.Load().Enter(live.GuardAbort)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.aborts.Inc()
	return g.rm.Abort(tid)
}

// Crash simulates power loss on the kernel.
func (g *Guard) Crash() {
	tok := g.mx.Load().Enter(live.GuardOther)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.rm.Crash()
}

// Recover runs restart recovery on the kernel.
func (g *Guard) Recover() error {
	tok := g.mx.Load().Enter(live.GuardRecover)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	g.recoveries.Inc()
	return g.rm.Recover()
}

// ReadCommitted reads the committed contents of page p.
func (g *Guard) ReadCommitted(p int64) ([]byte, error) {
	tok := g.mx.Load().Enter(live.GuardOther)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	return g.rm.ReadCommitted(p)
}

// Checkpoint runs the kernel's checkpoint maintenance operation under the
// guard lock, so it is safe to call while transactions run (the fuzzy
// checkpoint of the WAL kernel). Returns ErrUnsupported for kernels
// without one.
func (g *Guard) Checkpoint() error {
	tok := g.mx.Load().Enter(live.GuardCheckpoint)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	cp, ok := g.rm.(Checkpointer)
	if !ok {
		return ErrUnsupported
	}
	g.checkpoints.Inc()
	return cp.Checkpoint()
}

// Merge runs the kernel's merge maintenance operation under the guard lock
// (the differential-file fold of Table 11). Returns ErrUnsupported for
// kernels without one; the kernel itself may also refuse (diffeng requires
// quiescence).
func (g *Guard) Merge() error {
	tok := g.mx.Load().Enter(live.GuardMerge)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	mg, ok := g.rm.(Merger)
	if !ok {
		return ErrUnsupported
	}
	g.merges.Inc()
	return mg.Merge()
}

// Stats reports the wrapped kernel's counters (empty for kernels without
// any), taken under the guard lock.
func (g *Guard) Stats() map[string]int64 {
	tok := g.mx.Load().Enter(live.GuardOther)
	g.mu.Lock()
	tok.Acquired()
	defer g.mu.Unlock()
	defer tok.Release()
	if ss, ok := g.rm.(StatsSource); ok {
		return ss.Stats()
	}
	return map[string]int64{}
}

// OpCounts reports the guard's own instrumentation: how many operations of
// each kind the kernel absorbed since construction. The counters are
// atomic (live.Counter), so the snapshot is taken WITHOUT the kernel
// mutex — a scraper polling OpCounts never queues behind transactions.
// Each value is read atomically but the set is not a consistent cut;
// every counter is individually monotone. (Stats, by contrast, must call
// into the kernel and therefore still serializes under the mutex.)
func (g *Guard) OpCounts() map[string]int64 {
	return map[string]int64{
		"begins":      g.begins.Value(),
		"reads":       g.reads.Value(),
		"writes":      g.writes.Value(),
		"commits":     g.commits.Value(),
		"aborts":      g.aborts.Value(),
		"recoveries":  g.recoveries.Value(),
		"checkpoints": g.checkpoints.Value(),
		"merges":      g.merges.Value(),
	}
}

// SetMetrics attaches (or with nil detaches) a runtime contention profile.
// The attachment itself is atomic and may race with in-flight operations;
// an operation observes either the old or the new profile, never a torn
// one.
func (g *Guard) SetMetrics(m *live.GuardMetrics) { g.mx.Store(m) }

// Metrics returns the attached contention profile (nil when none).
func (g *Guard) Metrics() *live.GuardMetrics { return g.mx.Load() }

// SetJournal attaches (or with nil detaches) a structured recovery journal
// to the wrapped kernel, under the guard lock so the single-threaded kernel
// never sees the sink change mid-operation. Returns ErrUnsupported for
// kernels that do not journal.
func (g *Guard) SetJournal(j *obs.Journal) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.journal = j
	jk, ok := g.rm.(Journaled)
	if !ok {
		return ErrUnsupported
	}
	jk.SetJournal(j)
	return nil
}
