// Package diffeng implements a functional differential-file recovery engine
// (the paper's Section 3.3, after Severance & Lohman): the database is a
// view R = (B ∪ A) − D of a read-only base file B, an additions file A and a
// deletions file D. Here a tuple is a page, and page p's A entry supersedes
// every earlier version of p, so D would only repeat what A says: the kernel
// writes no D file. Transactions never touch B: an update appends the new
// version to A; commit appends a commit marker and forces the differential
// file. Recovery replays the stable A tail, honouring only marked
// transactions — B itself is always consistent.
//
// Merge folds the committed differentials into a new base and truncates A,
// the maintenance operation the paper sizes in Table 11.
//
// The Engine is a pure, single-threaded recovery kernel: it contains no
// locks, goroutines, or channels (simlint rule D004 enforces this), so its
// behaviour is a deterministic function of the call sequence. Concurrent
// callers must go through the thread-safe wrapper in internal/engine.
package diffeng

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

type entryType uint8

// Entry types. Type 2 was a D-file obituary; it is never written.
const (
	entryAdd    entryType = 1 // A-file record: a page's new version
	entryCommit entryType = 3
)

// entry is one differential-file record.
type entry struct {
	typ  entryType
	txn  uint64
	page int64
	data []byte
}

func (e entry) size() int { return 1 + 8 + 8 + 4 + len(e.data) }

func (e entry) marshal(buf []byte) []byte {
	buf = append(buf, byte(e.typ))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], e.txn)
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(e.page))
	buf = append(buf, tmp[:]...)
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(e.data)))
	buf = append(buf, l[:]...)
	return append(buf, e.data...)
}

func unmarshalEntry(buf []byte) (entry, int, error) {
	const header = 21
	if len(buf) < header {
		return entry{}, 0, fmt.Errorf("diffeng: truncated entry header")
	}
	var e entry
	e.typ = entryType(buf[0])
	if e.typ != entryAdd && e.typ != entryCommit {
		return entry{}, 0, fmt.Errorf("diffeng: corrupt entry type %d", buf[0])
	}
	e.txn = binary.BigEndian.Uint64(buf[1:])
	e.page = int64(binary.BigEndian.Uint64(buf[9:]))
	n := int(binary.BigEndian.Uint32(buf[17:]))
	if len(buf) < header+n {
		return entry{}, 0, fmt.Errorf("diffeng: truncated entry body")
	}
	if n > 0 {
		e.data = append([]byte(nil), buf[header:header+n]...)
	}
	return e, header + n, nil
}

// Reserved page-id layout: base pages are the logical ids (>= 0);
// differential chunks live below diffBase. Chunks are packed to the store's
// page size, so a single entry (21-byte header + value) must fit in one
// page; Write enforces that bound.
const diffBase int64 = -4000000

func chunkPage(seq int64) pagestore.PageID { return pagestore.PageID(diffBase - seq) }

// Engine is the differential-file engine: a pure kernel, not safe for
// concurrent use on its own. Isolation and locking are the caller's job
// (see internal/engine.Guard).
type Engine struct {
	store *pagestore.Store

	nextChunk int64
	volatile  []entry // appended, not yet forced

	view map[int64][]byte // committed differential view
	att  map[uint64][]entry

	adds, merges int64
	replayed     int64 // entries scanned by the last Recover

	// journal, when attached, records recovery and merge decisions in
	// order. A nil journal is a no-op sink; it belongs to the observer and
	// survives Crash.
	journal *obs.Journal
}

// New creates a differential-file engine on store.
func New(store *pagestore.Store) *Engine {
	return &Engine{
		store: store,
		view:  make(map[int64][]byte),
		att:   make(map[uint64][]entry),
	}
}

// Name identifies the engine.
func (e *Engine) Name() string { return "difffile" }

// SetJournal attaches (or with nil detaches) the structured recovery
// journal. Subsequent Recover and Merge calls emit their decisions to it.
func (e *Engine) SetJournal(j *obs.Journal) { e.journal = j }

// Load writes page p into the read-only base file B.
func (e *Engine) Load(p int64, data []byte) error {
	if err := e.store.Write(pagestore.PageID(p), data, 0); err != nil {
		return err
	}
	e.journal.EmitPage(p, obs.JournalRecord{Event: "load"})
	return nil
}

// Begin starts transaction tid.
func (e *Engine) Begin(tid uint64) error {
	if _, ok := e.att[tid]; ok {
		return fmt.Errorf("diffeng: transaction %d already active", tid)
	}
	e.att[tid] = nil
	return nil
}

// Read resolves page p through B ∪ A as seen by tid, including its own
// uncommitted differentials.
func (e *Engine) Read(tid uint64, p int64) ([]byte, error) {
	// The transaction's own pending additions shadow everything.
	if pend, ok := e.att[tid]; ok {
		for i := len(pend) - 1; i >= 0; i-- {
			if pend[i].page == p {
				return append([]byte(nil), pend[i].data...), nil
			}
		}
	}
	return e.resolveCommitted(p)
}

func (e *Engine) resolveCommitted(p int64) ([]byte, error) {
	if v, ok := e.view[p]; ok {
		return append([]byte(nil), v...), nil
	}
	data, _, err := e.store.Read(pagestore.PageID(p))
	if errors.Is(err, pagestore.ErrNotFound) {
		return nil, nil
	}
	return data, err
}

// Write replaces page p for tid: the new version goes to A (buffered until
// commit).
func (e *Engine) Write(tid uint64, p int64, data []byte) error {
	pend, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("diffeng: transaction %d not active", tid)
	}
	add := entry{typ: entryAdd, txn: tid, page: p, data: append([]byte(nil), data...)}
	if add.size() > e.store.PageSize() {
		return fmt.Errorf("diffeng: value for page %d (%d bytes) exceeds the differential chunk size %d",
			p, len(data), e.store.PageSize()-21)
	}
	e.att[tid] = append(pend, add)
	return nil
}

// Commit appends tid's differentials plus a commit marker and forces them.
// An error leaves the commit in doubt; recovery decides by the marker.
func (e *Engine) Commit(tid uint64) error {
	pend, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("diffeng: transaction %d not active", tid)
	}
	e.volatile = append(e.volatile, pend...)
	e.volatile = append(e.volatile, entry{typ: entryCommit, txn: tid})
	if err := e.force(); err != nil {
		return fmt.Errorf("diffeng: commit %d in doubt: %w", tid, err)
	}
	e.applyCommitted(pend)
	delete(e.att, tid)
	e.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid, N: int64(len(pend))})
	return nil
}

func (e *Engine) applyCommitted(entries []entry) {
	for _, en := range entries {
		if en.typ == entryAdd {
			e.view[en.page] = en.data
			e.adds++
		}
	}
}

// Abort drops tid's buffered differentials; nothing ever reached A.
func (e *Engine) Abort(tid uint64) error {
	if _, ok := e.att[tid]; !ok {
		return fmt.Errorf("diffeng: transaction %d not active", tid)
	}
	delete(e.att, tid)
	return nil
}

// force persists the volatile differential tail in whole-entry chunks of at
// most one store page each.
func (e *Engine) force() error {
	budget := e.store.PageSize()
	i := 0
	for i < len(e.volatile) {
		var buf []byte
		j := i
		for j < len(e.volatile) {
			if len(buf) > 0 && len(buf)+e.volatile[j].size() > budget {
				break
			}
			buf = e.volatile[j].marshal(buf)
			j++
		}
		if err := e.store.Write(chunkPage(e.nextChunk), buf, 0); err != nil {
			e.volatile = append([]entry(nil), e.volatile[i:]...)
			return err
		}
		e.nextChunk++
		i = j
	}
	e.volatile = e.volatile[:0]
	return nil
}

// Crash drops all volatile state (view cache, active transactions, unforced
// differential tail).
func (e *Engine) Crash() {
	e.view = nil
	e.att = nil
	e.volatile = nil
}

// Recover rebuilds the committed view by replaying the stable differential
// files; only transactions whose commit marker survived are applied.
func (e *Engine) Recover() error {
	if err := e.store.Reset(); err != nil {
		return err
	}
	entries, nextChunk, err := e.readStable()
	if err != nil {
		return err
	}
	e.nextChunk = nextChunk
	e.replayed = int64(len(entries))
	e.journal.Emit(obs.JournalRecord{Event: "scan", Engine: e.Name(), N: e.replayed})
	committed := map[uint64]bool{}
	for _, en := range entries {
		if en.typ == entryCommit {
			committed[en.txn] = true
		}
	}
	// Journal the classification in first-appearance (replay) order — never
	// by iterating the committed map, whose order is nondeterministic.
	if e.journal != nil {
		seen := map[uint64]bool{}
		for _, en := range entries {
			if seen[en.txn] {
				continue
			}
			seen[en.txn] = true
			ev := "loser"
			if committed[en.txn] {
				ev = "winner"
			}
			e.journal.Emit(obs.JournalRecord{Event: ev, Txn: en.txn})
		}
	}
	e.view = make(map[int64][]byte)
	e.adds = 0
	var applied int64
	for _, en := range entries {
		if committed[en.txn] {
			e.applyCommitted([]entry{en})
			if en.typ != entryCommit {
				applied++
			}
		}
	}
	e.journal.Emit(obs.JournalRecord{Event: "replay", Engine: e.Name(), N: applied})
	e.att = make(map[uint64][]entry)
	e.volatile = nil
	return nil
}

func (e *Engine) readStable() ([]entry, int64, error) {
	var out []entry
	seq := int64(0)
	for {
		buf, _, err := e.store.Read(chunkPage(seq))
		if errors.Is(err, pagestore.ErrNotFound) {
			return out, seq, nil
		}
		if err != nil {
			return nil, 0, err
		}
		for len(buf) > 0 {
			en, n, err := unmarshalEntry(buf)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, en)
			buf = buf[n:]
		}
		seq++
	}
}

// Merge folds the committed differential view into the base file and
// truncates A. It requires a quiescent engine (no active
// transactions).
func (e *Engine) Merge() error {
	if len(e.att) > 0 {
		return fmt.Errorf("diffeng: merge requires quiescence (%d active transactions)", len(e.att))
	}
	pages := make([]int64, 0, len(e.view))
	for p := range e.view {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, p := range pages {
		if err := e.store.Write(pagestore.PageID(p), e.view[p], 0); err != nil {
			return err
		}
	}
	// Truncate the differential files highest chunk first. The chunk file
	// must stay a contiguous prefix at all times: a crash mid-truncation then
	// leaves chunks 0..j, which recovery replays idempotently over the merged
	// base. Deleting ascending would instead leave a hole at chunk 0 with
	// stale chunks above it — a later force would fill the hole and recovery
	// would replay the stale tail on top of newer data.
	truncated := e.nextChunk
	for seq := e.nextChunk - 1; seq >= 0; seq-- {
		if err := e.store.Delete(chunkPage(seq)); err != nil {
			return err
		}
	}
	e.nextChunk = 0
	e.journal.Emit(obs.JournalRecord{Event: "merge", Engine: e.Name(), N: int64(len(pages))})
	e.journal.Emit(obs.JournalRecord{Event: "truncate", Engine: e.Name(), N: truncated})
	e.view = make(map[int64][]byte)
	e.merges++
	return nil
}

// ReadCommitted resolves the committed value of page p.
func (e *Engine) ReadCommitted(p int64) ([]byte, error) {
	return e.resolveCommitted(p)
}

// Stats reports counters.
func (e *Engine) Stats() map[string]int64 {
	return map[string]int64{
		"adds":     e.adds,
		"merges":   e.merges,
		"replayed": e.replayed,
	}
}
