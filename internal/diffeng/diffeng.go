// Package diffeng implements a functional differential-file recovery engine
// (the paper's Section 3.3, after Severance & Lohman): the database is a
// view R = (B ∪ A) − D of a read-only base file B, an additions file A and a
// deletions file D. Here a tuple is a page, and page p's A entry supersedes
// every earlier version of p, so D would only repeat what A says: the kernel
// writes no D file. Transactions never touch B: commit forces the
// transaction's A entries and then a commit marker as one run, from a fresh
// chunk of A and cut at the store's page size. So every complete run is a
// committed transaction; recovery replays those and deletes the torn run a
// power cut may leave after them. B itself is always consistent.
//
// Merge folds the committed differentials into a new base and truncates A,
// the maintenance operation the paper sizes in Table 11. An empty chunk 0
// marks a truncation in progress.
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

const entryHeader = 21 // type, txn, page and image length

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

// unmarshalEntry decodes the entry at the front of buf and its length, or
// length 0 and no error if buf ends inside it. An image longer than a page
// is corruption, so a damaged length field cannot pass for a cut entry.
func unmarshalEntry(buf []byte, pageSize int) (entry, int, error) {
	if len(buf) < entryHeader {
		return entry{}, 0, nil
	}
	var e entry
	e.typ = entryType(buf[0])
	if e.typ != entryAdd && e.typ != entryCommit {
		return entry{}, 0, fmt.Errorf("diffeng: corrupt entry type %d", buf[0])
	}
	e.txn = binary.BigEndian.Uint64(buf[1:])
	e.page = int64(binary.BigEndian.Uint64(buf[9:]))
	n := int(binary.BigEndian.Uint32(buf[17:]))
	if n > pageSize {
		return entry{}, 0, fmt.Errorf("diffeng: corrupt entry: %d-byte image exceeds page size %d", n, pageSize)
	}
	if len(buf) < entryHeader+n {
		return entry{}, 0, nil
	}
	if n > 0 {
		e.data = append([]byte(nil), buf[entryHeader:entryHeader+n]...)
	}
	return e, entryHeader + n, nil
}

// Reserved page-id layout: base pages are the logical ids (>= 0);
// differential chunk seq is page diffBase - seq. A chunk is a store page
// of one run; only a run's last chunk may be short.
const diffBase int64 = -4000000

func chunkPage(seq int64) pagestore.PageID { return pagestore.PageID(diffBase - seq) }

// Engine is the differential-file engine: a pure kernel, not safe for
// concurrent use on its own. Isolation and locking are the caller's job
// (see internal/engine.Guard).
type Engine struct {
	store *pagestore.Store

	nextChunk int64 // where the next run starts

	view map[int64][]byte // committed differential view
	att  map[uint64][]entry

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
// commit). Merge writes it into B, so B's page size bounds it.
func (e *Engine) Write(tid uint64, p int64, data []byte) error {
	pend, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("diffeng: transaction %d not active", tid)
	}
	if len(data) > e.store.PageSize() {
		return fmt.Errorf("diffeng: page %d: %d bytes exceeds page size %d", p, len(data), e.store.PageSize())
	}
	e.att[tid] = append(pend, entry{typ: entryAdd, txn: tid, page: p, data: append([]byte(nil), data...)})
	return nil
}

// Commit forces tid's differentials and a commit marker as one run. An
// error leaves the commit in doubt until Crash and Recover settle it.
func (e *Engine) Commit(tid uint64) error {
	pend, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("diffeng: transaction %d not active", tid)
	}
	var run []byte
	for _, en := range pend {
		run = en.marshal(run)
	}
	if err := e.force(entry{typ: entryCommit, txn: tid}.marshal(run)); err != nil {
		return fmt.Errorf("diffeng: commit %d in doubt: %w", tid, err)
	}
	e.applyCommitted(pend)
	delete(e.att, tid)
	e.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid, N: int64(len(pend))})
	return nil
}

// applyCommitted folds a committed transaction's entries into the view and
// reports how many were adds.
func (e *Engine) applyCommitted(entries []entry) (adds int64) {
	for _, en := range entries {
		if en.typ == entryAdd {
			e.view[en.page] = en.data
			adds++
		}
	}
	return adds
}

// Abort drops tid's buffered differentials; nothing ever reached A.
func (e *Engine) Abort(tid uint64) error {
	if _, ok := e.att[tid]; !ok {
		return fmt.Errorf("diffeng: transaction %d not active", tid)
	}
	delete(e.att, tid)
	return nil
}

// force writes run from a fresh chunk on, cut at the store's page size.
func (e *Engine) force(run []byte) error {
	size := e.store.PageSize()
	seq := e.nextChunk
	for off := 0; off < len(run); off += size {
		if err := e.store.Write(chunkPage(seq), run[off:min(off+size, len(run))], 0); err != nil {
			return err
		}
		seq++
	}
	e.nextChunk = seq
	return nil
}

// Crash drops all volatile state (view cache, active transactions).
func (e *Engine) Crash() {
	e.view = nil
	e.att = nil
}

// Recover rebuilds the committed view from B and the complete runs in A,
// read in order up to the first missing chunk. It deletes the torn run's
// chunks newest first, and the next run takes their place. After an empty
// chunk 0 it replays nothing and deletes every chunk.
func (e *Engine) Recover() error {
	if err := e.store.Reset(); err != nil {
		return err
	}
	e.view = make(map[int64][]byte)
	e.att = make(map[uint64][]entry)
	var scanned, adds int64 // the complete runs' entries, and their adds
	var winners []uint64    // the complete runs' txns, in log order
	var run []entry         // the run being read: its entries,
	var rest []byte         // its bytes not decoded yet,
	var start, seq int64    // its first chunk, and the chunk being read
	merged := false
	for ; ; seq++ {
		buf, _, err := e.store.Read(chunkPage(seq))
		if errors.Is(err, pagestore.ErrNotFound) {
			break
		}
		if err != nil {
			return err
		}
		if len(buf) == 0 && seq > 0 {
			return fmt.Errorf("diffeng: chunk %d is empty", seq)
		}
		if merged = merged || len(buf) == 0; merged {
			continue
		}
		rest = append(rest, buf...)
		for {
			en, n, err := unmarshalEntry(rest, e.store.PageSize())
			if err != nil {
				return fmt.Errorf("%w in chunk %d", err, seq)
			}
			if n == 0 {
				break
			}
			run, rest = append(run, en), rest[n:]
			if en.typ != entryCommit {
				continue
			}
			if len(rest) > 0 {
				return fmt.Errorf("diffeng: chunk %d: %d bytes follow txn %d's commit marker", seq, len(rest), en.txn)
			}
			adds += e.applyCommitted(run)
			scanned += int64(len(run))
			winners = append(winners, en.txn)
			run, start = nil, seq+1
		}
	}
	e.journal.Emit(obs.JournalRecord{Event: "scan", Engine: e.Name(), N: scanned})
	for _, tid := range winners {
		e.journal.Emit(obs.JournalRecord{Event: "winner", Txn: tid})
	}
	if len(run) > 0 {
		e.journal.Emit(obs.JournalRecord{Event: "loser", Txn: run[0].txn})
	}
	for seq--; seq >= start; seq-- {
		if err := e.store.Delete(chunkPage(seq)); err != nil {
			return err
		}
	}
	e.nextChunk = start
	e.journal.Emit(obs.JournalRecord{Event: "replay", Engine: e.Name(), N: adds})
	return nil
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
	// B holds every run now. An empty chunk 0 tells a restart so, if a crash
	// in the deletes leaves older runs; deleting the highest chunk first
	// keeps the chunks a contiguous prefix, and chunk 0 goes last.
	if e.nextChunk > 0 {
		if err := e.store.Write(chunkPage(0), nil, 0); err != nil {
			return err
		}
	}
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
	return nil
}

// ReadCommitted resolves the committed value of page p.
func (e *Engine) ReadCommitted(p int64) ([]byte, error) {
	return e.resolveCommitted(p)
}
