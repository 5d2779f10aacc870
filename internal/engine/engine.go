// Package engine is the transactional facade over the functional recovery
// engines: it adds page-level two-phase locking (via lockmgr) and a uniform
// Begin/Read/Write/Commit/Abort API on top of any RecoveryManager — the WAL
// engine, either shadow engine, or the differential-file engine — so the
// same application code runs against every recovery architecture the paper
// compares.
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/lockmgr"
	"repro/internal/obs/live"
)

// RecoveryManager is a functional recovery engine: it stores pages durably,
// isolates nothing (that is this package's job), and guarantees atomicity
// and durability across Crash/Recover. Implementations are pure,
// single-threaded kernels (internal/wal, internal/shadoweng,
// internal/diffeng); the Engine serializes all access to them through a
// Guard.
type RecoveryManager interface {
	Name() string
	Load(p int64, data []byte) error
	Begin(tid uint64) error
	Read(tid uint64, p int64) ([]byte, error)
	Write(tid uint64, p int64, data []byte) error
	Commit(tid uint64) error
	Abort(tid uint64) error
	Crash()
	Recover() error
	ReadCommitted(p int64) ([]byte, error)
}

// ErrDeadlock is returned when a transaction was chosen as a deadlock
// victim; it has been aborted and may simply be retried.
var ErrDeadlock = errors.New("engine: transaction aborted as deadlock victim")

// ErrDone is returned when using a transaction after commit or abort.
var ErrDone = errors.New("engine: transaction already finished")

// errPageRange is returned for a page id outside [0, 1<<62). The kernels
// place their own pages beside the data pages: negative ids for intent
// slots and difference-file chunks, page 2p+side for version p. A
// transaction naming an id outside the range would address those, or
// overflow.
var errPageRange = errors.New("engine: page id out of range [0, 1<<62)")

func checkPage(p int64) error {
	if p < 0 || p >= 1<<62 {
		return fmt.Errorf("%w: %d", errPageRange, p)
	}
	return nil
}

// Engine runs transactions with page-level 2PL over a RecoveryManager.
type Engine struct {
	rm      *Guard
	locks   *lockmgr.Manager
	nextTID atomic.Uint64

	commits, aborts, deadlocks live.Counter
}

// New builds an engine over the pure recovery kernel rm (which contains no
// locking of its own), wrapping it in a Guard.
func New(rm RecoveryManager) *Engine {
	return &Engine{rm: newGuard(rm), locks: lockmgr.New()}
}

// Guard exposes the engine's thread-safe kernel wrapper, through which
// maintenance operations (Checkpoint, Merge) and kernel stats can be
// reached safely while transactions run.
func (e *Engine) Guard() *Guard { return e.rm }

// Name reports the underlying recovery architecture.
func (e *Engine) Name() string { return e.rm.Name() }

// Load populates page p before transactions run.
func (e *Engine) Load(p int64, data []byte) error { return e.rm.Load(p, data) }

// Txn is one transaction. A Txn is owned by a single goroutine.
type Txn struct {
	e    *Engine
	id   uint64
	done bool
}

// Begin starts a transaction.
func (e *Engine) Begin() (*Txn, error) {
	id := e.nextTID.Add(1)
	if err := e.rm.Begin(id); err != nil {
		return nil, err
	}
	return &Txn{e: e, id: id}, nil
}

// ID reports the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Read returns page p under a shared lock. On deadlock the transaction is
// aborted and ErrDeadlock returned. A page id outside [0, 1<<62) is an
// error, and the transaction stays open.
func (t *Txn) Read(p int64) ([]byte, error) {
	if t.done {
		return nil, ErrDone
	}
	if err := checkPage(p); err != nil {
		return nil, err
	}
	if err := t.lock(p, lockmgr.Shared); err != nil {
		return nil, err
	}
	return t.e.rm.Read(t.id, p)
}

// Write replaces page p under an exclusive lock. On deadlock the
// transaction is aborted and ErrDeadlock returned. A page id outside
// [0, 1<<62) is an error, and the transaction stays open.
func (t *Txn) Write(p int64, data []byte) error {
	if t.done {
		return ErrDone
	}
	if err := checkPage(p); err != nil {
		return err
	}
	if err := t.lock(p, lockmgr.Exclusive); err != nil {
		return err
	}
	return t.e.rm.Write(t.id, p, data)
}

// PageWrite is one page image of a write set.
type PageWrite struct {
	Page int64
	Data []byte
}

// WriteAll writes a whole write set: it takes an exclusive lock on every
// page of ws before it writes the first, so a deadlock victim has written
// nothing. On deadlock the transaction is aborted and ErrDeadlock returned,
// as Write does. Any other failure aborts the transaction too, so no part of
// ws outlives a WriteAll that failed.
func (t *Txn) WriteAll(ws []PageWrite) error {
	if t.done {
		return ErrDone
	}
	for _, w := range ws {
		if err := checkPage(w.Page); err != nil {
			_ = t.Abort()
			return err
		}
	}
	for _, w := range ws {
		if err := t.lock(w.Page, lockmgr.Exclusive); err != nil {
			_ = t.Abort() // ErrDone after a deadlock, which aborted already
			return err
		}
	}
	for _, w := range ws {
		if err := t.e.rm.Write(t.id, w.Page, w.Data); err != nil {
			_ = t.Abort() // the write error is the one to report
			return err
		}
	}
	return nil
}

func (t *Txn) lock(p int64, mode lockmgr.Mode) error {
	err := t.e.locks.Lock(lockmgr.TxnID(t.id), lockmgr.PageID(p), mode)
	if errors.Is(err, lockmgr.ErrDeadlock) {
		t.e.deadlocks.Inc()
		if aerr := t.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort failed: %v)", ErrDeadlock, aerr)
		}
		return ErrDeadlock
	}
	return err
}

// Commit makes the transaction durable and releases its locks.
func (t *Txn) Commit() error {
	if t.done {
		return ErrDone
	}
	t.done = true
	err := t.e.rm.Commit(t.id)
	t.e.locks.ReleaseAll(lockmgr.TxnID(t.id))
	if err == nil {
		t.e.commits.Inc()
	}
	return err
}

// Abort rolls the transaction back and releases its locks.
func (t *Txn) Abort() error {
	if t.done {
		return ErrDone
	}
	t.done = true
	err := t.e.rm.Abort(t.id)
	t.e.locks.ReleaseAll(lockmgr.TxnID(t.id))
	t.e.aborts.Inc()
	return err
}

// Update runs fn inside a transaction, committing on nil return and
// aborting on error; deadlock victims are retried automatically.
func (e *Engine) Update(fn func(*Txn) error) error {
	for {
		t, err := e.Begin()
		if err != nil {
			return err
		}
		err = fn(t)
		if errors.Is(err, ErrDeadlock) {
			continue // fn's transaction was already aborted; retry
		}
		if err != nil {
			if !t.done {
				_ = t.Abort()
			}
			return err
		}
		err = t.Commit()
		if errors.Is(err, ErrDeadlock) {
			continue
		}
		return err
	}
}

// Crash simulates power loss: open transactions and their locks are
// forgotten like the rest of volatile state, and a Lock call parked on a
// page returns lockmgr.ErrReleased.
func (e *Engine) Crash() {
	e.rm.Crash()
	e.locks.Reset()
}

// Recover runs restart recovery on the underlying engine.
func (e *Engine) Recover() error { return e.rm.Recover() }

// ReadCommitted reads the committed state of page p (use when quiescent,
// e.g. after Recover).
func (e *Engine) ReadCommitted(p int64) ([]byte, error) { return e.rm.ReadCommitted(p) }

// Stats reports commit/abort/deadlock counts.
func (e *Engine) Stats() (commits, aborts, deadlocks int64) {
	return e.commits.Value(), e.aborts.Value(), e.deadlocks.Value()
}
