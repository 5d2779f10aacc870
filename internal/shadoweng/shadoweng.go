// Package shadoweng implements functional shadow-paging recovery engines
// over a pagestore.Store:
//
//   - Engine: canonical shadow paging (System R style, the paper's Section
//     3.2). Updated pages go to fresh blocks; commit writes a new page table
//     and atomically flips a root pointer. Recovery is trivial: the root
//     always names a consistent state.
//   - OverwriteEngine: the paper's overwriting architectures (Section
//     3.2.2.2) in both flavours. No-undo writes updated pages to a scratch
//     area, commits via an intention record, then overwrites the shadows in
//     place (recovery redoes unfinished overwrites). No-redo saves the
//     originals to the scratch area before updating in place (recovery
//     restores the originals of uncommitted transactions).
//
// Every engine here is a pure, single-threaded recovery kernel: no locks,
// goroutines, or channels (simlint rule D004 enforces this), so behaviour
// is a deterministic function of the call sequence. Concurrent callers must
// go through the thread-safe wrapper in internal/engine.
package shadoweng

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// Reserved page-id ranges in the store. Data blocks use ids >= 0.
const (
	rootPage  pagestore.PageID = -1
	ptBase    int64            = -1000000 // page-table chunks, two copies
	ptCopyGap int64            = 1000     // max chunks per page-table copy
)

func ptChunkID(copy int, chunk int) pagestore.PageID {
	return pagestore.PageID(ptBase - int64(copy)*ptCopyGap - int64(chunk))
}

// Engine is the canonical shadow-paging engine: a pure kernel, not safe
// for concurrent use on its own. Page-level isolation and locking are the
// caller's job (see internal/engine).
type Engine struct {
	store *pagestore.Store

	current   map[int64]int64 // logical page -> data block
	freeList  []int64
	nextBlock int64
	curCopy   int // which page-table copy the root points at
	gen       uint64

	att map[uint64]map[int64]int64 // tid -> logical -> new block

	// journal, when attached, records recovery decisions in order. A nil
	// journal is a no-op sink; it belongs to the observer and survives
	// Crash.
	journal *obs.Journal
}

// New creates a shadow-paging engine on store, writing an empty initial
// root.
func New(store *pagestore.Store) (*Engine, error) {
	e := &Engine{
		store:   store,
		current: make(map[int64]int64),
		att:     make(map[uint64]map[int64]int64),
	}
	if err := e.writePageTable(); err != nil {
		return nil, err
	}
	return e, nil
}

// Name identifies the engine.
func (e *Engine) Name() string { return "shadow(page-table)" }

// SetJournal attaches (or with nil detaches) the structured recovery
// journal. Subsequent Recover calls emit their decisions to it.
func (e *Engine) SetJournal(j *obs.Journal) { e.journal = j }

// Load populates logical page p before transactions run.
func (e *Engine) Load(p int64, data []byte) error {
	blk := e.allocBlock()
	if err := e.store.Write(pagestore.PageID(blk), data, 0); err != nil {
		return err
	}
	e.current[p] = blk
	return e.writePageTable()
}

// Begin starts transaction tid.
func (e *Engine) Begin(tid uint64) error {
	if _, ok := e.att[tid]; ok {
		return fmt.Errorf("shadoweng: transaction %d already active", tid)
	}
	e.att[tid] = make(map[int64]int64)
	return nil
}

// Read returns page p as seen by tid (its own writes included).
func (e *Engine) Read(tid uint64, p int64) ([]byte, error) {
	if w, ok := e.att[tid]; ok {
		if blk, ok := w[p]; ok {
			data, _, err := e.store.Read(pagestore.PageID(blk))
			return data, err
		}
	}
	return e.readCommitted(p)
}

func (e *Engine) readCommitted(p int64) ([]byte, error) {
	blk, ok := e.current[p]
	if !ok {
		return nil, nil // never written: empty page
	}
	data, _, err := e.store.Read(pagestore.PageID(blk))
	return data, err
}

// Write stores data for page p in a fresh shadow block; the current version
// is untouched until commit.
func (e *Engine) Write(tid uint64, p int64, data []byte) error {
	w, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	blk, ok := w[p]
	if !ok {
		blk = e.allocBlock()
		w[p] = blk
	}
	if err := e.store.Write(pagestore.PageID(blk), data, 0); err != nil {
		return err
	}
	e.journal.EmitPage(p, obs.JournalRecord{Event: "shadow", Txn: tid, N: blk})
	return nil
}

// Commit atomically installs tid's writes: the new page table is written to
// the inactive copy and the root pointer flip is the commit point.
func (e *Engine) Commit(tid uint64) error {
	w, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	old := make(map[int64]int64, len(w))
	for p, blk := range w {
		if prev, ok := e.current[p]; ok {
			old[p] = prev
		}
		e.current[p] = blk
	}
	if err := e.writePageTable(); err != nil {
		// Roll the in-memory table back; the root still points at the old
		// state, so the commit did not happen.
		for p := range w {
			if prev, ok := old[p]; ok {
				e.current[p] = prev
			} else {
				delete(e.current, p)
			}
		}
		return fmt.Errorf("shadoweng: commit %d failed: %w", tid, err)
	}
	// Old blocks become free; new blocks are now reachable.
	for _, blk := range old {
		e.freeList = append(e.freeList, blk)
	}
	delete(e.att, tid)
	return nil
}

// Abort discards tid's shadow blocks.
func (e *Engine) Abort(tid uint64) error {
	w, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	for _, blk := range w {
		e.freeList = append(e.freeList, blk)
	}
	delete(e.att, tid)
	return nil
}

func (e *Engine) allocBlock() int64 {
	if n := len(e.freeList); n > 0 {
		blk := e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
		return blk
	}
	blk := e.nextBlock
	e.nextBlock++
	return blk
}

// writePageTable serializes the current mapping into the inactive copy and
// flips the root. The root write is the atomic commit point. The root holds
// the copy and its chunk count; its generation is the root page's version.
func (e *Engine) writePageTable() error {
	next := 1 - e.curCopy
	blob := marshalTable(e.current, e.nextBlock)
	chunkSize := e.store.PageSize()
	nChunks := 0
	for off := 0; off < len(blob) || nChunks == 0; off += chunkSize {
		end := off + chunkSize
		if end > len(blob) {
			end = len(blob)
		}
		if err := e.store.Write(ptChunkID(next, nChunks), blob[off:end], 0); err != nil {
			return err
		}
		nChunks++
	}
	root := make([]byte, 16)
	binary.BigEndian.PutUint64(root[0:], uint64(next))
	binary.BigEndian.PutUint64(root[8:], uint64(nChunks))
	e.gen++
	if err := e.store.Write(rootPage, root, e.gen); err != nil {
		e.gen--
		return err
	}
	e.curCopy = next
	// The root flip is the engine's only durability decision on the
	// forward path, so it is the journal's "commit point" record: every
	// stable mutation (Load, Commit) reaches stable state through here.
	e.journal.Emit(obs.JournalRecord{Event: "flip", Engine: e.Name(), LSN: e.gen, N: int64(nChunks), Note: fmt.Sprintf("copy%d", next)})
	return nil
}

func marshalTable(m map[int64]int64, nextBlock int64) []byte {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, 0, 16*len(m)+16)
	var tmp [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	put(int64(len(m)))
	put(nextBlock)
	for _, k := range keys {
		put(k)
		put(m[k])
	}
	return buf
}

func unmarshalTable(buf []byte) (map[int64]int64, int64, error) {
	if len(buf) < 16 {
		return nil, 0, fmt.Errorf("shadoweng: page table too short")
	}
	n := int64(binary.BigEndian.Uint64(buf))
	nextBlock := int64(binary.BigEndian.Uint64(buf[8:]))
	if int64(len(buf)) < 16+16*n {
		return nil, 0, fmt.Errorf("shadoweng: truncated page table")
	}
	m := make(map[int64]int64, n)
	off := 16
	for i := int64(0); i < n; i++ {
		k := int64(binary.BigEndian.Uint64(buf[off:]))
		v := int64(binary.BigEndian.Uint64(buf[off+8:]))
		m[k] = v
		off += 16
	}
	return m, nextBlock, nil
}

// Crash simulates power loss: all volatile state (current table cache,
// active transactions, free list) vanishes.
func (e *Engine) Crash() {
	e.current = nil
	e.att = nil
	e.freeList = nil
}

// Recover restores the committed state from the root pointer. Unreachable
// data blocks (shadow blocks of transactions lost in the crash) are
// reclaimed onto the free list.
func (e *Engine) Recover() error {
	if err := e.store.Reset(); err != nil {
		return err
	}
	root, gen, err := e.store.Read(rootPage)
	if err != nil {
		return fmt.Errorf("shadoweng: no root: %w", err)
	}
	copyIdx := int(binary.BigEndian.Uint64(root[0:]))
	nChunks := int(binary.BigEndian.Uint64(root[8:]))
	var blob []byte
	for c := 0; c < nChunks; c++ {
		chunk, _, err := e.store.Read(ptChunkID(copyIdx, c))
		if err != nil {
			return fmt.Errorf("shadoweng: page-table chunk %d: %w", c, err)
		}
		blob = append(blob, chunk...)
	}
	table, nextBlock, err := unmarshalTable(blob)
	if err != nil {
		return err
	}
	e.current = table
	e.curCopy = copyIdx
	e.gen = gen
	e.nextBlock = nextBlock
	e.journal.Emit(obs.JournalRecord{Event: "root", Engine: e.Name(), LSN: gen, N: int64(len(table)), Note: fmt.Sprintf("copy%d", copyIdx)})
	e.att = make(map[uint64]map[int64]int64)
	// Garbage-collect unreachable blocks.
	reachable := make(map[int64]bool, len(table))
	for _, blk := range table {
		reachable[blk] = true
	}
	e.freeList = nil
	for blk := int64(0); blk < nextBlock; blk++ {
		if !reachable[blk] {
			e.freeList = append(e.freeList, blk)
		}
	}
	e.journal.Emit(obs.JournalRecord{Event: "gc", Engine: e.Name(), N: int64(len(e.freeList))})
	return nil
}

// ReadCommitted reads the committed contents of page p.
func (e *Engine) ReadCommitted(p int64) ([]byte, error) {
	return e.readCommitted(p)
}

// Stats reports the page table's free blocks.
func (e *Engine) Stats() map[string]int64 {
	return map[string]int64{"free": int64(len(e.freeList))}
}
