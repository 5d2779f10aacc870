// Package pagestore provides the stable-storage substrate for the functional
// recovery engines: a page-addressed store with atomic page writes, a
// crash-consistency contract, and fault injection.
//
// A Store models a disk: writes that return nil are durable and survive
// Crash; anything a client keeps in its own memory does not. Each page
// carries a caller-managed version word (used as a pageLSN by the WAL
// engine and as a timestamp by the shadow engines) written atomically with
// the page contents — the moral equivalent of a page header.
//
// The contract is total: EVERY stable-storage operation — Read, Write,
// Delete, and the Exists probe — fails with ErrCrashed while the power is
// off, and every one of them advances the operation sequence a FaultHook
// observes. Nothing is readable from a crashed store, and no operation is
// invisible to a crash sweep.
//
// Store separates the contract from the medium: the crash state, fault
// hooks, and statistics live in Store, while the bytes live behind the
// Backend interface. New builds on Mem, the in-memory backend (the
// simulated disk the experiments run on, over Table, the two-level page
// table the WAL's buffer pool and transaction table use too);
// internal/pagestore/filestore implements the same contract over a real
// page file and an on-disk write-ahead log with explicit fsync discipline,
// so the same recovery audits run against bytes on disk. The file store
// embeds a Mem as the mirror of its files, so one page table holds every
// store's pages.
//
// Buffers: a Store keeps no caller's buffer and hands out none of its own.
// Write's data is copied by the backend before Write returns; Read returns
// a fresh copy, and ReadInto copies into a buffer the caller supplies, so
// a caller that recycles page buffers reads without allocating.
//
// Fault injection: SetFaultHook installs a predicate consulted before
// every read, write, delete, and existence probe; returning true cuts
// power at exactly that operation, and every later operation fails with
// ErrCrashed until Reset. CrashAtMutation and CrashAtOp are the one-shot
// hooks tests and sweeps install (see internal/faultinj); one hook shared
// by several stores counts their combined operation sequence. File-backed
// stores additionally expose file-operation-granularity injection through
// SetFileHook (torn writes, lost fsyncs; see filefault.go).
package pagestore

import (
	"errors"
	"fmt"
	"sync"
)

// PageID identifies a page in a Store.
type PageID int64

// ErrCrashed is returned once an injected fault has cut power (and until
// Reset): the simulated machine has lost power.
var ErrCrashed = errors.New("pagestore: store has crashed (power cut)")

// ErrNotFound is returned when reading a page that was never written.
var ErrNotFound = errors.New("pagestore: page not found")

// ErrClosed is returned by operations on a store whose backend has been
// closed.
var ErrClosed = errors.New("pagestore: store is closed")

// Op identifies a stable-storage operation presented to a FaultHook.
type Op uint8

// The operations a FaultHook observes. Existence probes (Store.Exists)
// present as OpRead: they read device state even though they transfer no
// page bytes.
const (
	OpRead Op = iota
	OpWrite
	OpDelete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	}
	return "op?"
}

// A FaultHook is consulted before every read, write, delete, and existence
// probe on a live store. Returning true cuts power at exactly that
// operation: the op fails with ErrCrashed and the store stays down until
// Reset. seq is the store's monotone operation sequence number (1-based,
// counting every hooked op over the store's whole lifetime — Reset does not
// rewind it), so a sweep can enumerate crash points exhaustively. The hook
// runs with the store's lock held and must not call back into the store.
// A hook installed on several stores may be called by them at once.
type FaultHook func(op Op, id PageID, seq int64) bool

// Backend stores the bytes for a Store. The Store owns the crash contract
// (ErrCrashed gating, fault hooks, stats) and calls the backend
// only while live; backends own the medium.
//
// Buffer ownership: Put must not keep the caller's buffer — the backend
// copies data into storage of its own (Mem into the page's existing buffer
// when it is large enough), so callers may reuse
// their buffers as soon as Put returns. Get may return an internal buffer,
// valid until the next Put or Del of that page; the Store copies it before
// handing it to callers.
//
// PowerOff models losing power: whatever the medium would lose, it loses
// now (the in-memory backend loses nothing — its page table is the
// platter; the file backend drops unsynced bytes and keeps at most a torn
// prefix of an in-flight record). PowerOn models restart: the backend
// rebuilds its state from the medium and reports corruption it cannot
// recover from. Both must be idempotent.
type Backend interface {
	Get(id PageID) (data []byte, version uint64, ok bool)
	Put(id PageID, data []byte, version uint64) error
	Del(id PageID) error
	Has(id PageID) bool
	Len() int
	Keys() []PageID // ascending id order (determinism is part of the contract)
	PowerOff()
	PowerOn() error
	Close() error
}

// Mem is the volatile simulated disk New builds, whose contents survive
// power-off by construction: its page table is the platter. The file store
// embeds one as the mirror of its files. The kernels place their pages in a
// few dense runs — data pages from 0 up, the shadow and differential
// engines' structures down from negative bases, a WAL stream's log chunks
// from stream<<40 up — so a steady workload touches the Table's map once
// per block change, not once per operation.
type Mem struct{ Pages Table[PageID, Page] }

// Page is a stored page; its Data is never nil, so a zero slot is none.
type Page struct {
	Data    []byte
	Version uint64
}

func (m *Mem) Get(id PageID) ([]byte, uint64, bool) {
	p := m.Pages.Get(id)
	return p.Data, p.Version, p.Data != nil
}

// Put copies data into the page's own buffer when it is large enough.
func (m *Mem) Put(id PageID, data []byte, version uint64) error {
	p := m.Pages.Put(id)
	if p.Data == nil || cap(p.Data) < len(data) {
		p.Data = make([]byte, len(data))
	}
	p.Data = p.Data[:len(data)]
	copy(p.Data, data)
	p.Version = version
	return nil
}

func (m *Mem) Del(id PageID) error { m.Pages.Delete(id); return nil }
func (m *Mem) Has(id PageID) bool  { return m.Pages.Get(id).Data != nil }
func (m *Mem) Len() int            { return m.Pages.Len() }
func (m *Mem) Keys() []PageID      { return m.Pages.Keys() }
func (m *Mem) PowerOff()           {}
func (m *Mem) PowerOn() error      { return nil }
func (m *Mem) Close() error        { return nil }

// Store is a simulated disk with a crash-consistency contract. The zero
// value is not usable; create one with New (in-memory) or NewOn (any
// Backend, e.g. filestore.Open). Store is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	pageSize int
	be       Backend

	crashed bool
	closed  bool
	hook    FaultHook
	opSeq   int64

	reads  int64
	writes int64
}

// New returns an in-memory Store for pages of exactly pageSize bytes.
func New(pageSize int) *Store { return NewOn(pageSize, &Mem{}) }

// NewOn returns a Store for pages of exactly pageSize bytes over backend
// be. The store takes ownership of the backend.
func NewOn(pageSize int, be Backend) *Store {
	if pageSize <= 0 {
		panic("pagestore: page size must be positive")
	}
	if be == nil {
		panic("pagestore: nil backend")
	}
	return &Store{pageSize: pageSize, be: be}
}

// Backend returns the store's backend (for experimenters that need the
// medium itself, e.g. to find a file-backed store's directory). Callers
// must not mutate pages through it while the store is in use.
func (s *Store) Backend() Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.be
}

// PageSize reports the page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// backendErr translates a backend failure. A backend that reports
// ErrCrashed has had power cut by an injected file fault and has already
// applied its own loss semantics; the store just records the outage.
// Callers hold s.mu.
func (s *Store) backendErr(err error) error {
	if errors.Is(err, ErrCrashed) {
		s.crashed = true
	}
	return err
}

// Write atomically replaces page id with data and its version word. The
// write is durable once Write returns nil. Checks run in contract order —
// crashed, fault hook, size — all under the lock, so even an oversize
// attempt on a crashed store reports ErrCrashed and every attempt is
// visible in the operation sequence.
func (s *Store) Write(id PageID, data []byte, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gate(OpWrite, id); err != nil {
		return err
	}
	if len(data) > s.pageSize {
		return fmt.Errorf("pagestore: page %d: %d bytes exceeds page size %d",
			id, len(data), s.pageSize)
	}
	if err := s.be.Put(id, data, version); err != nil {
		return s.backendErr(err)
	}
	s.writes++
	return nil
}

// Read returns a copy of page id and its version word.
func (s *Store) Read(id PageID) ([]byte, uint64, error) { return s.ReadInto(nil, id) }

// ReadInto is Read into dst's array when it has room for the page, and into
// a new buffer when it has not (or dst is nil). It returns the page's bytes
// and its version word; a caller that recycles page buffers reads without
// allocating.
func (s *Store) ReadInto(dst []byte, id PageID) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gate(OpRead, id); err != nil {
		return nil, 0, err
	}
	data, version, ok := s.be.Get(id)
	if !ok {
		return nil, 0, ErrNotFound
	}
	s.reads++
	if dst == nil || cap(dst) < len(data) {
		dst = make([]byte, len(data))
	}
	dst = dst[:len(data)]
	copy(dst, data)
	return dst, version, nil
}

// Exists reports whether page id is currently stored. It is a
// stable-storage operation like any other: it fails with ErrCrashed while
// the power is off and is presented to the fault hook as an OpRead, so a
// crash sweep can cut power at an existence probe (recovery code paths
// such as the overwrite engines' intent-slot scan probe storage this way).
func (s *Store) Exists(id PageID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gate(OpRead, id); err != nil {
		return false, err
	}
	s.reads++
	return s.be.Has(id), nil
}

// Delete removes page id (used by compaction); deleting an absent page is a
// no-op. Deletes are stable-storage mutations: CrashAtMutation counts them
// and the write statistics include them exactly like Write, so injection
// can land on a delete boundary (several commit points — the overwrite
// engines' intent-record removal, the WAL's log truncation — ARE deletes).
func (s *Store) Delete(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gate(OpDelete, id); err != nil {
		return err
	}
	if err := s.be.Del(id); err != nil {
		return s.backendErr(err)
	}
	s.writes++
	return nil
}

// gate runs the contract's checks on operation op on page id, in order:
// a closed store fails with ErrClosed and a crashed one with ErrCrashed;
// then the operation advances the operation sequence and is presented to
// the fault hook. When the hook fires it cuts power there: the store
// enters the crashed state and the backend applies its medium's loss
// semantics. Callers hold s.mu.
func (s *Store) gate(op Op, id PageID) error {
	if s.closed {
		return ErrClosed
	}
	if s.crashed {
		return ErrCrashed
	}
	s.opSeq++
	if s.hook != nil && s.hook(op, id, s.opSeq) {
		s.crashed = true
		s.be.PowerOff()
		return ErrCrashed
	}
	return nil
}

// SetFaultHook installs (or, with nil, removes) the fault hook. The hook
// survives Reset: restoring power does not disarm an experimenter's probe,
// which is what lets sweeps crash a store again in the middle of recovery.
// So a caller that cuts power mid-workload removes the hook before
// recovering, in case it has not fired yet.
func (s *Store) SetFaultHook(h FaultHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// CrashAtMutation returns a hook that cuts power at exactly the n-th
// mutation (write or delete) it observes, counting across every store it
// is installed on. It fires once; afterwards it stays quiet, so recovery
// can proceed over the same store without re-tripping. Stores may call
// it at once (a log force runs outside the engine's guard), so its count
// is taken under a mutex.
func CrashAtMutation(n int64) FaultHook {
	var mu sync.Mutex
	var seen int64
	return func(op Op, _ PageID, _ int64) bool {
		if op == OpRead {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		seen++
		return seen == n
	}
}

// CrashAtOp returns a hook that cuts power at exactly the n-th operation of
// any kind — reads included, because restart recovery on the shadow and
// differential engines is read-mostly and would otherwise present no crash
// points. Like CrashAtMutation it fires exactly once and may be shared by
// stores called at once.
func CrashAtOp(n int64) FaultHook {
	var mu sync.Mutex
	var seen int64
	return func(Op, PageID, int64) bool {
		mu.Lock()
		defer mu.Unlock()
		seen++
		return seen == n
	}
}

// Crashed reports whether the store is in the crashed state.
func (s *Store) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Reset brings a crashed store back online (power restored). Durable
// contents are preserved — that is the point; the backend reloads them
// from its medium (a no-op for memory, a page-file load plus log replay
// with torn-tail truncation for files) and reports unrecoverable
// corruption as an error. An installed fault hook stays armed (see
// SetFaultHook).
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.crashed = false
	return s.be.PowerOn()
}

// Close releases the backend (flushing and closing any files). Every
// subsequent operation fails with ErrClosed; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.be.Close()
}

// Stats reports the number of read operations (reads and existence probes)
// and mutations (writes and deletes) served.
func (s *Store) Stats() (reads, writes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.writes
}

// Pages reports the number of distinct pages stored.
func (s *Store) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.be.Len()
}

// Keys returns the ids of all stored pages in ascending order, so the
// recovery scans and garbage collection built on it visit pages in a
// reproducible sequence.
func (s *Store) Keys() []PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.be.Keys()
}
