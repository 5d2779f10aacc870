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
// envelope: it serializes every kernel call behind one mutex, so the
// concurrent runtime sees exactly the call sequences the single-threaded
// kernels are proven against.

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
// serialized behind a single mutex; an attached live.GuardMetrics records
// each call's wait for and hold of it.
type Guard struct {
	mu sync.Mutex
	rm RecoveryManager

	// mx is the optional runtime contention profile. It is attached with
	// SetMetrics through an atomic pointer so hot paths read it without
	// extending the guarded section; a nil profile makes every token
	// operation a no-op.
	mx atomic.Pointer[live.GuardMetrics]
}

// lock enters the guarded section for op: the contention token starts the
// wait, the mutex is taken, and the token marks the hand-off.
func (g *Guard) lock(op live.GuardOp) live.GuardToken {
	tok := g.mx.Load().Enter(op)
	g.mu.Lock()
	tok.Acquired()
	return tok
}

// unlock leaves the guarded section. The token is released before the
// mutex, so the hold time covers the kernel call.
func (g *Guard) unlock(tok *live.GuardToken) {
	tok.Release()
	g.mu.Unlock()
}

// Unwrap returns the pure kernel. Callers may use it only while no other
// goroutine touches the Guard (single-threaded drivers, quiesced engines).
func (g *Guard) Unwrap() RecoveryManager { return g.rm }

// Name identifies the wrapped kernel.
func (g *Guard) Name() string { return g.rm.Name() }

// Load populates page p before transactions run.
func (g *Guard) Load(p int64, data []byte) error {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	return g.rm.Load(p, data)
}

// Begin starts transaction tid.
func (g *Guard) Begin(tid uint64) error {
	tok := g.lock(live.GuardBegin)
	defer g.unlock(&tok)
	return g.rm.Begin(tid)
}

// Read returns page p as seen by tid (which must be an active
// transaction).
func (g *Guard) Read(tid uint64, p int64) ([]byte, error) {
	tok := g.lock(live.GuardRead)
	defer g.unlock(&tok)
	return g.rm.Read(tid, p)
}

// Write replaces page p on behalf of tid.
func (g *Guard) Write(tid uint64, p int64, data []byte) error {
	tok := g.lock(live.GuardWrite)
	defer g.unlock(&tok)
	return g.rm.Write(tid, p, data)
}

// Commit makes tid durable.
func (g *Guard) Commit(tid uint64) error {
	tok := g.lock(live.GuardCommit)
	defer g.unlock(&tok)
	return g.rm.Commit(tid)
}

// Abort rolls tid back.
func (g *Guard) Abort(tid uint64) error {
	tok := g.lock(live.GuardAbort)
	defer g.unlock(&tok)
	return g.rm.Abort(tid)
}

// Crash simulates power loss on the kernel.
func (g *Guard) Crash() {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	g.rm.Crash()
}

// Recover runs restart recovery on the kernel.
func (g *Guard) Recover() error {
	tok := g.lock(live.GuardRecover)
	defer g.unlock(&tok)
	return g.rm.Recover()
}

// ReadCommitted reads the committed contents of page p.
func (g *Guard) ReadCommitted(p int64) ([]byte, error) {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	return g.rm.ReadCommitted(p)
}

// Checkpoint runs the kernel's checkpoint maintenance operation under the
// guard lock, so it is safe to call while transactions run (the WAL
// kernel's non-quiescing checkpoint, which flushes every dirty page).
// Returns ErrUnsupported for kernels without one.
func (g *Guard) Checkpoint() error {
	tok := g.lock(live.GuardCheckpoint)
	defer g.unlock(&tok)
	cp, ok := g.rm.(Checkpointer)
	if !ok {
		return ErrUnsupported
	}
	return cp.Checkpoint()
}

// Merge runs the kernel's merge maintenance operation under the guard lock
// (the differential-file fold of Table 11). Returns ErrUnsupported for
// kernels without one; the kernel itself may also refuse (diffeng requires
// quiescence).
func (g *Guard) Merge() error {
	tok := g.lock(live.GuardMerge)
	defer g.unlock(&tok)
	mg, ok := g.rm.(Merger)
	if !ok {
		return ErrUnsupported
	}
	return mg.Merge()
}

// Stats reports the wrapped kernel's counters (empty for kernels without
// any), taken under the guard lock.
func (g *Guard) Stats() map[string]int64 {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	if ss, ok := g.rm.(StatsSource); ok {
		return ss.Stats()
	}
	return map[string]int64{}
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
	jk, ok := g.rm.(Journaled)
	if !ok {
		return ErrUnsupported
	}
	jk.SetJournal(j)
	return nil
}
