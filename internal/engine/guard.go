package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/wal"
)

// The recovery kernels (internal/wal, internal/shadoweng, internal/diffeng)
// are pure and single-threaded by contract — simlint rule D004 bans sync
// primitives and goroutines inside them. Guard is their concurrency
// envelope: it serializes every kernel call behind one mutex, so the
// concurrent runtime sees exactly the call sequences the single-threaded
// kernels are proven against. A WriteBehind kernel's (the WAL's) two
// stable writes run outside it, each as a wal.Batch written by
// wal.WriteBatch with the mutex released. One is the log force. A commit
// appends its record under the mutex; one committer, the leader, then
// writes a copy of everything the log holds unforced, while the commits
// that arrive meanwhile wait on a condition variable for the next leader,
// whose one force covers them all. The other is the page write of a
// steal: the kernel does the write-ahead work under the mutex and queues a
// copy of the page, and the call that queued it writes it, one writer at a
// time; a call that must read the data store meanwhile waits on the same
// condition variable. The kernel never runs outside the mutex: what leaves
// it is copied chunks and pages, and the stores, which are safe for
// concurrent use.

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

// WriteBehind is implemented by kernels whose log force and steals' page
// writes can run outside the Guard's mutex (the WAL manager). Seal copies
// every chunk the log holds unforced into a wal.Batch, SealSteals the
// queued steals' pages; the Guard writes either with wal.WriteBatch and
// ends it with Settle, which keeps what it did not write for the next.
//
// A commit appends its record with AppendCommit and is decided when a
// force settles: Committed reports it done, with nil, or with the error of
// a force that failed, which leaves it in doubt. Gathering reports commits
// waiting for a force, or for their failure to be reported.
//
// With DeferSteals(true) a steal does its write-ahead work, queues a copy
// of its page and stops its call with wal.ErrStealQueued (a read returns
// its page with it); the call is made again once the queue is written, and
// goes on. While steals are written, a call that must read the data store
// returns wal.ErrStealWait, and is made again once they settle. A lone
// session thus makes the store operations of the kernel's own Commit and
// inline steals, in their order.
type WriteBehind interface {
	AppendCommit(tid uint64) (done bool, err error)
	Committed(tid uint64) (done bool, err error)
	Gathering() bool
	Seal(b *wal.Batch)
	DeferSteals(on bool)
	SealSteals(b *wal.Batch) bool
	Settle(b *wal.Batch, err error)
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
// each call's wait for and hold of it. A WriteBehind kernel's log force and
// steal writes run outside the mutex, one force and one steal writer at a
// time; maintenance waits for both.
type Guard struct {
	mu sync.Mutex
	rm RecoveryManager
	wb WriteBehind // rm, when its force and steals are written outside the mutex

	// Under mu: settled is broadcast when a force or a run of steal writes
	// ends, or a commit leaves in doubt; forcing and stealing report a
	// force and a steal writer in flight, and force and steals are their
	// batches.
	settled           sync.Cond
	forcing, stealing bool
	force, steals     wal.Batch

	// mx is the optional runtime contention profile. It is attached with
	// SetMetrics through an atomic pointer so hot paths read it without
	// extending the guarded section; a nil profile makes every token
	// operation a no-op.
	mx atomic.Pointer[live.GuardMetrics]
}

func newGuard(rm RecoveryManager) *Guard {
	g := &Guard{rm: rm}
	if g.wb, _ = rm.(WriteBehind); g.wb != nil {
		g.wb.DeferSteals(true)
	}
	g.settled.L = &g.mu
	return g
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

// Unwrap returns the pure kernel, which writes its steals inline again.
// Callers may use it only while no other goroutine touches the Guard
// (single-threaded drivers, quiesced engines).
func (g *Guard) Unwrap() RecoveryManager {
	if g.wb != nil {
		g.wb.DeferSteals(false)
	}
	return g.rm
}

// Name identifies the wrapped kernel.
func (g *Guard) Name() string { return g.rm.Name() }

// Load populates page p before transactions run. It waits for a steal
// write in flight; the kernel writes the steals still queued first.
func (g *Guard) Load(p int64, data []byte) error {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	for g.stealing {
		g.await(&tok)
	}
	return g.rm.Load(p, data)
}

// Begin starts transaction tid.
func (g *Guard) Begin(tid uint64) error {
	tok := g.lock(live.GuardBegin)
	defer g.unlock(&tok)
	return g.rm.Begin(tid)
}

// Read returns page p as seen by tid (which must be an active
// transaction). Read, Write, Abort and ReadCommitted may steal, and are
// made again until retry has nothing more to do for them.
func (g *Guard) Read(tid uint64, p int64) ([]byte, error) {
	tok := g.lock(live.GuardRead)
	defer g.unlock(&tok)
	data, err := g.rm.Read(tid, p)
	for g.retry(&err, &tok, true) {
		data, err = g.rm.Read(tid, p)
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Write replaces page p on behalf of tid.
func (g *Guard) Write(tid uint64, p int64, data []byte) error {
	tok := g.lock(live.GuardWrite)
	defer g.unlock(&tok)
	err := g.rm.Write(tid, p, data)
	for g.retry(&err, &tok, false) {
		err = g.rm.Write(tid, p, data)
	}
	return err
}

// retry reports whether the kernel call that returned *err must be made
// again, having first done what the error asks. A call that queued a steal
// has it written, unless another call is writing steals, which then writes
// this one too; a failed write ends the call, with its error in *err. A
// read (done) returned its page with the steal, so once the steal is
// written its error is cleared and it is not made again. A call that must
// read the data store while steals are written waits until the write
// settles. Both waits release the mutex.
func (g *Guard) retry(err *error, tok *live.GuardToken, done bool) bool {
	switch *err { // the kernel returns both bare
	case wal.ErrStealQueued:
		*err = g.writeSteals(tok)
		return *err == nil && !done
	case wal.ErrStealWait:
		for g.stealing {
			g.await(tok)
		}
		return true
	}
	return false
}

// writeSteals writes the queued steals, unless another call is writing
// steals: one writer at a time, batch after batch until none is queued or
// a write fails, whose error it returns.
func (g *Guard) writeSteals(tok *live.GuardToken) error {
	if g.stealing {
		return nil
	}
	var err error
	for err == nil && g.wb.SealSteals(&g.steals) {
		g.stealing = true
		err = g.write(&g.steals, tok)
	}
	if g.stealing {
		g.stealing = false
		g.settled.Broadcast()
	}
	return err
}

// write writes the sealed batch b with the mutex released, left out of
// tok's hold, then settles it, and returns the write's error.
func (g *Guard) write(b *wal.Batch, tok *live.GuardToken) error {
	tok.Pause()
	g.mu.Unlock()
	err := wal.WriteBatch(b)
	g.mu.Lock()
	tok.Resume()
	g.wb.Settle(b, err)
	return err
}

// Commit makes tid durable. A WriteBehind kernel's commit appends its
// record and waits for a force to decide it: it leads one when none is in
// flight, so its record is in it, and else waits for the one in flight to
// settle. It returns nil once a force has made the record durable, and an
// in-doubt error once one has failed to.
func (g *Guard) Commit(tid uint64) error {
	tok := g.lock(live.GuardCommit)
	defer g.unlock(&tok)
	if g.wb == nil {
		return g.rm.Commit(tid)
	}
	if done, err := g.wb.AppendCommit(tid); done || err != nil {
		return err
	}
	for {
		done, err := g.wb.Committed(tid)
		switch {
		case err != nil:
			g.settled.Broadcast() // quiesce waits until the failure is reported
			return fmt.Errorf("engine: commit %d in doubt: %w", tid, err)
		case done:
			return nil
		case g.forcing:
			g.await(&tok)
		default:
			g.lead(&tok)
		}
	}
}

// lead forces the commits gathered while no force is in flight: it seals
// the log, so later commits gather for the next force, writes the sealed
// chunks, settles the force and wakes every waiter.
func (g *Guard) lead(tok *live.GuardToken) {
	g.forcing = true
	g.wb.Seal(&g.force)
	g.write(&g.force, tok)
	g.forcing = false
	g.settled.Broadcast()
}

// await waits for a force or a run of steal writes in flight to settle,
// with the mutex released meanwhile and left out of tok's hold.
func (g *Guard) await(tok *live.GuardToken) {
	tok.Pause()
	g.settled.Wait()
	tok.Resume()
}

// quiesce waits until no commit is between its record and learning its
// force's outcome and no steal is being written, so maintenance never runs
// beside either, and a crash never takes a commit record, or a failed
// force's verdict, whose committer is still waiting. Every commit waiting
// has a force in flight to wake it, and wakes to lead the next or to
// report its failure.
func (g *Guard) quiesce(tok *live.GuardToken) {
	for g.forcing || g.stealing || g.wb != nil && g.wb.Gathering() {
		g.await(tok)
	}
}

// Abort rolls tid back.
func (g *Guard) Abort(tid uint64) error {
	tok := g.lock(live.GuardAbort)
	defer g.unlock(&tok)
	err := g.rm.Abort(tid)
	for g.retry(&err, &tok, false) {
		err = g.rm.Abort(tid)
	}
	return err
}

// Crash simulates power loss on the kernel.
func (g *Guard) Crash() {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	g.quiesce(&tok)
	g.rm.Crash()
}

// Recover runs restart recovery on the kernel.
func (g *Guard) Recover() error {
	tok := g.lock(live.GuardRecover)
	defer g.unlock(&tok)
	g.quiesce(&tok)
	return g.rm.Recover()
}

// ReadCommitted reads the committed contents of page p.
func (g *Guard) ReadCommitted(p int64) ([]byte, error) {
	tok := g.lock(live.GuardOther)
	defer g.unlock(&tok)
	data, err := g.rm.ReadCommitted(p)
	for g.retry(&err, &tok, true) {
		data, err = g.rm.ReadCommitted(p)
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Checkpoint runs the kernel's checkpoint maintenance operation under the
// guard lock, so it is safe to call while transactions run (the WAL
// kernel's non-quiescing checkpoint, which writes the queued steals, then
// flushes every dirty page). Returns ErrUnsupported for kernels without
// one.
func (g *Guard) Checkpoint() error {
	tok := g.lock(live.GuardCheckpoint)
	defer g.unlock(&tok)
	g.quiesce(&tok)
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
	g.quiesce(&tok)
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
