package wal

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// Config parameterizes the WAL manager.
type Config struct {
	// Streams is the number of parallel log streams (the paper's log
	// processors). Default 1.
	Streams int
	// Selection assigns records to streams. Default PageMod.
	Selection Selection
	// LogStore, when non-nil, holds the log instead of a fresh in-memory
	// store. It must have page size LogChunkSize. This is the seam that
	// lets the log live on a file-backed store (pagestore/filestore) while
	// the manager stays medium-agnostic.
	LogStore *pagestore.Store
	// PoolPages is the buffer pool capacity in pages. Default 64.
	PoolPages int
}

func (c Config) withDefaults() Config {
	if c.Streams == 0 {
		c.Streams = 1
	}
	if c.PoolPages == 0 {
		c.PoolPages = 64
	}
	return c
}

// bufPage is one pooled page. The pool's pages form a ring through
// prev/next, least recently used first, anchored at Manager.lru.
type bufPage struct {
	id         pagestore.PageID
	data       []byte
	lsn        uint64
	txn        uint64 // the transaction that wrote the record at lsn
	dirty      bool
	prev, next *bufPage
}

// poolSlot is a page's entry in the pool's directory: its frame while it is
// pooled, and during restart its stable version once a read found it covers
// a record (see redo).
type poolSlot struct {
	frame   *bufPage
	version uint64
}

// undoRec is what rolling one update back takes: put old back where the
// update left ins bytes. The update removed del bytes, which old holds once
// they are known: at run time always, at restart once the page the update
// was redone on or its undo record has shown them. Until then old is nil,
// which only an update that removed nothing may leave it.
type undoRec struct {
	lsn  uint64
	page pagestore.PageID
	off  int
	ins  int
	del  int
	old  []byte
	undo uint64 // the undo record that logs old; 0: none (none is needed when del is 0)
}

// txnState tracks an active transaction. firstLSN stays zero until its
// first update: a transaction that changed nothing has no
// records, pins no log, and ends without touching the log. Restart's
// transaction table uses the same records, firstLSN then being the LSN of
// the transaction's first live record. Records are recycled (see openTxn
// and endTxn), so their slices keep their arrays from one transaction to
// the next.
type txnState struct {
	firstLSN  uint64
	commitLSN uint64    // its commit record, once appended; 0 before
	doubt     error     // the error of the force that failed to make its commit record durable
	told      bool      // Committed has reported doubt
	updates   []undoRec // not yet compensated, oldest first
	rolled    int       // updates Abort has compensated, across its calls
	arena     []byte    // the updates' old bytes, back to back
}

// keep copies old into the arena and returns the copy.
func (ts *txnState) keep(old []byte) []byte {
	n := len(ts.arena)
	ts.arena = append(ts.arena, old...)
	return ts.arena[n:len(ts.arena):len(ts.arena)]
}

// Manager is the WAL recovery engine: steal/no-force buffer management over
// a data page store, with parallel log streams on a log store. The Manager
// is a pure, single-threaded recovery kernel — no locks, goroutines, or
// channels (simlint rule D004 enforces this) — so its behaviour is a
// deterministic function of the call sequence. Concurrent callers must go
// through the thread-safe wrapper in internal/engine, whose page-level
// strict two-phase locking the delta records rely on: a record's byte range
// is exact only against the page its writer saw, so no other transaction
// may change a page between an update and its transaction's end. Its
// buffer pool's directory and its transaction table are pagestore.Tables,
// so a page or transaction id anywhere in range costs what a dense one does.
type Manager struct {
	cfg     Config
	data    *pagestore.Store
	logs    *pagestore.Store
	streams []*stream
	nextLSN uint64

	pool   pagestore.Table[pagestore.PageID, poolSlot] // the pool's directory
	frames int                                         // pooled pages
	lru    bufPage                                     // ring anchor: lru.next is the eviction victim
	spare  []byte                                      // the last victim's page buffer, for the next fetch
	free   []*bufPage                                  // frames a crash or restart emptied, buffers kept

	att      pagestore.Table[uint64, *txnState] // active transactions by id
	freeTxns []*txnState                        // ended transactions' records, cleared for reuse

	// Group commit (see AppendCommit, Seal, Settle and Committed): the
	// transactions whose commit records were appended since the last Seal,
	// those the force in flight covers, and its runs of chunks, one per
	// stream; the stream of the newest commit record, which a force writes
	// last; the commits of failed forces that Committed has not reported;
	// and Commit's own force.
	appended, sealed []uint64
	spans            []forceSpan
	lastCommit       int
	untold           int
	force            Batch

	// Steals (see evict, DeferSteals and SealSteals): the copies of stolen
	// pages not yet in the data store, oldest first, with the buffers of
	// those written kept past its end; whether a run-time steal leaves its
	// copy queued for the caller, and whether a batch of them is being
	// written.
	stolen      Batch
	deferSteals bool
	stealing    bool

	steals   int64
	uncommit int64 // dirty pages written while holding an active transaction's update
	scanned  int64 // log records merged by the last Recover

	// journal, when attached, records recovery decisions in order. A nil
	// journal is a no-op sink; like every kernel it survives Crash — it
	// belongs to the observer, not to volatile state.
	journal *obs.Journal
}

// NewManager builds a WAL manager over dataStore; the log lives in its own
// store (exposed by LogStore for fault injection).
func NewManager(dataStore *pagestore.Store, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	logs := cfg.LogStore
	if logs == nil {
		logs = pagestore.New(logChunkSize)
	} else if logs.PageSize() != logChunkSize {
		panic("wal: Config.LogStore page size must be wal.LogChunkSize")
	}
	if dataStore.PageSize()+maxRecHeader > logChunkSize {
		panic("wal: data pages too large for a record to fit one log chunk")
	}
	m := &Manager{
		cfg:     cfg,
		data:    dataStore,
		logs:    logs,
		nextLSN: 1,
		stolen:  Batch{store: dataStore},
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	for i := 0; i < cfg.Streams; i++ {
		m.streams = append(m.streams, &stream{idx: i, store: m.logs})
	}
	return m
}

// Name identifies the engine.
func (m *Manager) Name() string {
	return fmt.Sprintf("wal(%d streams,%s)", m.cfg.Streams, m.cfg.Selection)
}

// LogStore exposes the log's stable storage for fault injection in tests.
func (m *Manager) LogStore() *pagestore.Store { return m.logs }

// SetJournal attaches (or with nil detaches) the structured recovery
// journal. Subsequent Recover and Checkpoint calls emit their decisions to
// it.
func (m *Manager) SetJournal(j *obs.Journal) { m.journal = j }

// Load populates page p with initial data, bypassing logging. Call before
// running transactions.
func (m *Manager) Load(p int64, data []byte) error {
	if err := m.writeStolen(); err != nil {
		return err
	}
	if err := m.data.Write(pagestore.PageID(p), data, 0); err != nil {
		return err
	}
	m.journal.EmitPage(p, obs.JournalRecord{Event: "load"})
	return nil
}

// Begin starts transaction tid. Nothing is logged: the transaction enters
// the log with its first update.
func (m *Manager) Begin(tid uint64) error {
	if m.att.Get(tid) != nil {
		return fmt.Errorf("wal: transaction %d already active", tid)
	}
	m.openTxn(tid)
	return nil
}

// openTxn enters tid in the active table under a recycled record.
func (m *Manager) openTxn(tid uint64) *txnState {
	var ts *txnState
	if n := len(m.freeTxns); n > 0 {
		ts = m.freeTxns[n-1]
		m.freeTxns = m.freeTxns[:n-1]
	} else {
		ts = &txnState{}
	}
	*m.att.Put(tid) = ts
	return ts
}

// endTxn retires tid's record: it leaves the active table, is cleared, and
// waits on the free list for a later Begin.
func (m *Manager) endTxn(tid uint64, ts *txnState) {
	m.att.Delete(tid)
	*ts = txnState{updates: ts.updates[:0], arena: ts.arena[:0]}
	m.freeTxns = append(m.freeTxns, ts)
}

// Read returns the current contents of page p as seen by tid (its own
// uncommitted writes included).
func (m *Manager) Read(tid uint64, p int64) ([]byte, error) {
	bp, err := m.getPage(pagestore.PageID(p))
	if bp == nil {
		return nil, err
	}
	return append([]byte(nil), bp.data...), err // err: nil, or ErrStealQueued
}

// Write replaces page p with data on behalf of tid, logging the byte range
// that changes first (the write-ahead protocol: the record is buffered now
// and forced before the page can reach stable storage). The record holds
// the new bytes only; the old ones are kept for Abort, and logged only if
// the page is written before tid ends (see writeAhead). A write that changes
// nothing logs nothing.
func (m *Manager) Write(tid uint64, p int64, data []byte) error {
	ts := m.att.Get(tid)
	if ts == nil {
		return fmt.Errorf("wal: transaction %d not active", tid)
	}
	if len(data) > m.data.PageSize() {
		return fmt.Errorf("wal: page %d: %d bytes exceeds page size %d", p, len(data), m.data.PageSize())
	}
	bp, err := m.getPage(pagestore.PageID(p))
	if err != nil {
		return err
	}
	off, del, ins := diff(bp.data, data)
	if del == 0 && len(ins) == 0 {
		return nil
	}
	old := ts.keep(bp.data[off : off+del])
	lsn := m.appendRec(Record{Type: RecUpdate, Txn: tid, Page: p, Off: off, Del: del, New: ins})
	if ts.firstLSN == 0 {
		ts.firstLSN = lsn
	}
	ts.updates = append(ts.updates, undoRec{lsn: lsn, page: pagestore.PageID(p), off: off, ins: len(ins), del: del, old: old})
	bp.data = append(bp.data[:0], data...)
	bp.lsn, bp.txn = lsn, tid
	bp.dirty = true
	return nil
}

// Commit makes tid durable: its commit record is appended and every stream
// is forced. An error means the commit is in doubt (power failed mid-force);
// recovery decides the outcome. A transaction that changed nothing has
// nothing to make durable: no record, no force. Commit is one group commit
// of one (AppendCommit, Seal, WriteBatch, Settle, Committed), all in this
// call.
func (m *Manager) Commit(tid uint64) error {
	if done, err := m.AppendCommit(tid); done || err != nil {
		return err
	}
	m.Seal(&m.force)
	m.Settle(&m.force, WriteBatch(&m.force))
	if _, err := m.Committed(tid); err != nil {
		return fmt.Errorf("wal: commit %d in doubt: %w", tid, err)
	}
	return nil
}

// Batch is one write-behind batch: copies of what the kernel owes a store,
// each a page's id, bytes and version, in the order they must reach it.
// Seal fills one with a group commit's log force, SealSteals with the
// queued steals' pages; WriteBatch writes it, outside the kernel, and
// Settle ends it. A Batch is reused from one batch to the next, buffers
// and all.
type Batch struct {
	store   *pagestore.Store
	writes  []pageWrite
	written int // how many of writes reached the store
}

// pageWrite is one page of a batch: a sealed log chunk, at version 0, or a
// stolen page, at its LSN, which the data store keeps as its version.
type pageWrite struct {
	id      pagestore.PageID
	data    []byte
	version uint64
}

// reset empties b for a batch to store; its writes keep their buffers.
func (b *Batch) reset(store *pagestore.Store) {
	b.store, b.writes, b.written = store, b.writes[:0], 0
}

// add appends a copy of one page to b, in the buffer a write past its end
// kept.
func (b *Batch) add(id pagestore.PageID, data []byte, version uint64) {
	n := len(b.writes)
	if n == cap(b.writes) {
		b.writes = append(b.writes, pageWrite{})
	}
	b.writes = b.writes[:n+1]
	w := &b.writes[n]
	w.id, w.data, w.version = id, append(w.data[:0], data...), version
}

// WriteBatch writes b's pages to its store in order, stopping at the first
// error. It touches no kernel state, so the Guard runs it outside its
// mutex, between the seal that filled b and Settle.
func WriteBatch(b *Batch) error {
	for ; b.written < len(b.writes); b.written++ {
		w := &b.writes[b.written]
		if err := b.store.Write(w.id, w.data, w.version); err != nil {
			return err
		}
	}
	return nil
}

// forceSpan is the run of a force's writes that one stream sealed: n
// chunks, numbered from first.
type forceSpan struct {
	stream int
	first  int64
	n      int
}

// AppendCommit is a commit's first step: it appends tid's commit record,
// which the next Seal covers. A transaction that changed nothing ends at
// once, and done reports it. Until a force settles the commit, tid stays
// open (see Committed).
func (m *Manager) AppendCommit(tid uint64) (done bool, err error) {
	ts := m.att.Get(tid)
	if ts == nil {
		return false, fmt.Errorf("wal: transaction %d not active", tid)
	}
	if ts.firstLSN == 0 {
		m.endTxn(tid, ts)
		m.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid})
		return true, nil
	}
	ts.commitLSN, m.lastCommit = m.appendRecOn(Record{Type: RecCommit, Txn: tid})
	m.appended = append(m.appended, tid)
	return false, nil
}

// Seal starts a force of everything the log holds unforced: every stream's
// volatile chunks are sealed and copied into b, the stream of the newest
// commit record last. The restart merge treats a durable commit record as
// proof the transaction's updates are durable too; the other streams,
// where those updates may live, are written first, and the log ends at the
// first missing LSN, so a crash anywhere in a force leaves each commit it
// covers absent or whole, never torn. The commits appended so far are the
// force's. Seal and Settle bracket one force: no other Seal, no Crash and
// no Recover may come between them.
func (m *Manager) Seal(b *Batch) {
	b.reset(m.logs)
	m.spans = m.spans[:0]
	for i := range m.streams {
		if i != m.lastCommit {
			m.seal(b, i)
		}
	}
	m.seal(b, m.lastCommit)
	m.appended, m.sealed = m.sealed[:0], m.appended
}

// seal seals stream i's volatile chunks into b.
func (m *Manager) seal(b *Batch, i int) {
	s := m.streams[i]
	if len(s.tail) == 0 {
		return
	}
	m.spans = append(m.spans, forceSpan{i, s.nextChunk, len(s.tail)})
	for j := range s.tail {
		s.tail[j].sealed = true
		b.add(chunkID(i, s.nextChunk+int64(j)), s.tail[j].buf, 0)
	}
}

// Settle ends batch b, which WriteBatch wrote until err. A force, b's
// store the log's, leaves the chunks written durable and the rest volatile
// again. If it wrote every chunk, the commits it covers are acknowledged,
// each ending its transaction; if not, they stay open, in doubt, as
// recovery will decide them, and Committed reports each done with err. A
// batch of steals drops the pages it wrote from the queue, each journaled
// as a steal, and keeps the rest queued, first, so a read finds their
// copies, never the data store's older versions, and the next write tries
// them again.
func (m *Manager) Settle(b *Batch, err error) {
	if b.store != m.logs {
		m.settleSteals(b.written)
		return
	}
	left := b.written
	for _, sp := range m.spans {
		w := min(left, sp.n)
		left -= w
		m.streams[sp.stream].settle(sp.first, w, sp.n)
	}
	for _, tid := range m.sealed {
		ts := m.att.Get(tid)
		if err != nil {
			ts.doubt = err
			m.untold++
			continue
		}
		m.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid, LSN: ts.commitLSN})
		m.endTxn(tid, ts)
	}
	m.sealed = m.sealed[:0]
}

// Committed reports whether tid's commit, its record appended, is decided:
// done with a nil error once a force made the record durable, which ended
// tid, and done with that force's error once one failed to, which left tid
// open and in doubt. Until then its record waits for a force, or is in the
// force in flight.
func (m *Manager) Committed(tid uint64) (done bool, err error) {
	ts := m.att.Get(tid)
	if ts == nil {
		return true, nil
	}
	if ts.doubt != nil && !ts.told {
		ts.told = true
		m.untold--
	}
	return ts.doubt != nil, ts.doubt
}

// Gathering reports whether a commit record waits for the next Seal, or a
// failed force's commit has yet to be reported by Committed. A crash then
// would take the record, or the verdict, from under a committer still
// waiting for it; the force in flight, if any, is the caller's to track.
func (m *Manager) Gathering() bool { return len(m.appended) > 0 || m.untold > 0 }

// Abort rolls back tid by putting its old bytes back, newest update first.
// Each restoration is itself logged as a compensation record, so recovery
// never undoes work that was already rolled back — even if a later
// transaction committed changes to the same pages. A transaction that
// changed nothing leaves the log alone. An Abort that fails part way (with
// ErrStealWait, say) is finished by calling it again.
func (m *Manager) Abort(tid uint64) error {
	ts := m.att.Get(tid)
	if ts == nil {
		return fmt.Errorf("wal: transaction %d not active", tid)
	}
	for len(ts.updates) > 0 {
		if err := m.compensate(tid, ts); err != nil {
			return err
		}
		ts.rolled++
	}
	if ts.firstLSN != 0 {
		m.appendRec(Record{Type: RecAbort, Txn: tid})
	}
	n := ts.rolled
	m.endTxn(tid, ts)
	m.journal.Emit(obs.JournalRecord{Event: "abort", Txn: tid, N: int64(n)})
	return nil
}

// compensate rolls back the newest update of ts still standing, at run time
// and at restart alike: the old bytes go back into the pooled page and a
// compensation record says so. The page reaches disk, if at all, by a steal
// like any other dirty page — after its log.
func (m *Manager) compensate(tid uint64, ts *txnState) error {
	u := ts.updates[len(ts.updates)-1]
	bp, err := m.getPage(u.page)
	if err != nil {
		return err
	}
	data, err := splice(bp.data, u.off, u.ins, u.old)
	if err != nil {
		return err
	}
	lsn := m.appendRec(Record{Type: RecUpdate, Txn: tid, Page: int64(u.page), CompLSN: u.lsn, Off: u.off, Del: u.ins, New: u.old})
	ts.updates = ts.updates[:len(ts.updates)-1]
	bp.data = data
	bp.lsn, bp.txn = lsn, tid
	bp.dirty = true
	return nil
}

// appendRec assigns the next LSN and buffers the record on its stream.
func (m *Manager) appendRec(rec Record) uint64 {
	lsn, _ := m.appendRecOn(rec)
	return lsn
}

// appendRecOn is appendRec, additionally reporting which stream the record
// landed on.
func (m *Manager) appendRecOn(rec Record) (uint64, int) {
	rec.LSN = m.nextLSN
	m.nextLSN++
	i := m.cfg.Selection.pick(m.cfg.Streams, rec.Txn, rec.Page)
	m.streams[i].append(&rec)
	return rec.LSN, i
}

// forceThrough makes the log durable up to lsn: every stream whose oldest
// volatile record is at or below lsn is forced, as far as lsn needs (see
// stream.reach). A stream's LSNs ascend, so a stream whose volatile head
// lies above lsn holds nothing the write-ahead rule needs, and is left
// alone.
func (m *Manager) forceThrough(lsn uint64) error {
	for _, s := range m.streams {
		if head := s.head(); head == 0 || head > lsn {
			continue
		}
		if err := s.force(s.reach(lsn)); err != nil {
			return err
		}
	}
	return nil
}

// resetPool empties the pool. Its frames, buffers and all, go on the free
// list, which admit draws from before it allocates a frame.
func (m *Manager) resetPool() {
	for bp := m.lru.next; bp != &m.lru; bp = bp.next {
		m.free = append(m.free, bp)
	}
	m.pool = pagestore.Table[pagestore.PageID, poolSlot]{}
	m.frames = 0
	m.lru.prev, m.lru.next = &m.lru, &m.lru
}

// getPage returns the pooled page, fetching (and possibly evicting) as
// needed. A full pool recycles its least recently used frame (see admit).
func (m *Manager) getPage(p pagestore.PageID) (*bufPage, error) {
	if bp := m.pool.Get(p).frame; bp != nil {
		bp.unlink()
		m.pushNewest(bp)
		return bp, nil
	}
	data, version, err := m.fetch(p)
	if err != nil {
		return nil, err
	}
	var victim *bufPage
	if m.frames >= m.cfg.PoolPages {
		victim = m.lru.next
	}
	queued := len(m.stolen.writes)
	bp, err := m.admit(p, data, version, victim)
	if err == nil && len(m.stolen.writes) > queued {
		err = ErrStealQueued // p is pooled: a call made again finds it
	}
	return bp, err
}

// fetch reads page p into the spare buffer, which keeps the result. Pages
// never stored read as empty, at version 0. A page with a steal queued is
// read from its newest copy, never from the data store's older version;
// any other waits while a batch of steals is being written (ErrStealWait).
func (m *Manager) fetch(p pagestore.PageID) ([]byte, uint64, error) {
	if sp := m.stolenCopy(p); sp != nil {
		m.spare = append(m.spare[:0], sp.data...)
		return m.spare, sp.version, nil
	} else if m.stealing {
		return nil, 0, ErrStealWait
	}
	data, version, err := m.data.ReadInto(m.spare, p)
	if err == pagestore.ErrNotFound {
		data, version, err = m.spare[:0], 0, nil
	} else if err != nil {
		return nil, 0, err
	}
	m.spare = data
	return data, version, nil
}

// admit pools page p, fetched into the spare buffer at version, in victim's
// frame, or when victim is nil in a free frame or else a new one. The page
// is read before the victim is stolen, so the store sees the read first;
// then the frame's old buffer becomes the spare.
func (m *Manager) admit(p pagestore.PageID, data []byte, version uint64, victim *bufPage) (*bufPage, error) {
	bp := victim
	if bp != nil {
		if err := m.evict(bp); err != nil {
			return nil, err
		}
	} else if n := len(m.free); n > 0 {
		bp, m.free = m.free[n-1], m.free[:n-1]
	} else {
		bp = &bufPage{}
	}
	m.spare = bp.data // nil for a new frame
	*bp = bufPage{id: p, data: data, lsn: version}
	m.pool.Put(p).frame = bp
	m.frames++
	m.pushNewest(bp)
	return bp, nil
}

func (bp *bufPage) unlink() {
	bp.prev.next, bp.next.prev = bp.next, bp.prev
}

func (m *Manager) pushNewest(bp *bufPage) {
	bp.prev, bp.next = m.lru.prev, &m.lru
	bp.prev.next, m.lru.prev = bp, bp
}

// evict takes bp out of the pool. A dirty page is stolen: its write-ahead
// work is done, and a copy of it queued behind the steals not yet written,
// which a kernel without deferral writes at once (see DeferSteals).
// Replacement is LRU: the victim is the least recently used page, whose
// records a commit has usually forced long ago, so most steals cost the
// page write alone.
func (m *Manager) evict(bp *bufPage) error {
	if bp.dirty {
		if err := m.writeAhead(bp); err != nil {
			return err
		}
		m.stolen.add(bp.id, bp.data, bp.lsn)
		bp.dirty = false
		if !m.deferSteals {
			if err := m.writeStolen(); err != nil {
				return err
			}
		}
	}
	bp.unlink()
	m.pool.Delete(bp.id)
	m.frames--
	return nil
}

// writeAhead does what the write-ahead rule asks before dirty page bp may
// reach the data store. The rule covers both images of an update. The log
// must be durable through bp's LSN, so that every update on bp can be
// redone. And an update of a transaction still active must have its old
// bytes in the log, since a crash would leave it to be undone from the log
// alone: each such update not yet covered gets an undo record, and the log
// must be durable through those too. Page-level strict two-phase locking
// lets no one else write a page between an update and its transaction's
// end, so only bp's last writer can hold such an update. A writer that has
// appended its commit record needs no undo: the log is forced through that
// record instead, so the update reaches disk only once its transaction is
// a winner.
func (m *Manager) writeAhead(bp *bufPage) error {
	through := bp.lsn
	if ts := m.att.Get(bp.txn); ts != nil && ts.commitLSN != 0 {
		through = max(through, ts.commitLSN)
	} else if ts != nil {
		held := false
		for i := range ts.updates {
			u := &ts.updates[i]
			if u.page != bp.id {
				continue
			}
			held = true
			if u.undo == 0 && u.del > 0 {
				u.undo = m.appendRec(Record{Type: RecUndo, Txn: bp.txn, Page: int64(u.page), CompLSN: u.lsn, Old: u.old})
			}
			through = max(through, u.undo)
		}
		if held {
			m.uncommit++
		}
	}
	return m.forceThrough(through)
}

// ErrStealQueued and ErrStealWait stop a call that may steal (Read, Write,
// Abort, ReadCommitted) where it must wait for a deferred steal's write
// (see DeferSteals). The call has done nothing that calling it again
// repeats, and the call made again goes on where it stopped. ErrStealQueued
// says the call queued a steal: the caller writes it (SealSteals,
// WriteBatch, Settle) and calls again, so the steal reaches the data store
// where an inline one would, before the rest of the call. Read and
// ReadCommitted have nothing left to do but return the page, so they return
// it with ErrStealQueued: once the steal is written, the page is the
// result. ErrStealWait says the call must read the data store while a
// batch of steals is being written to it: the caller waits for the batch to
// settle, and calls again. Both are returned bare.
var (
	ErrStealQueued = errors.New("wal: a steal is queued for its page write")
	ErrStealWait   = errors.New("wal: the data store is busy with a steal write")
)

// DeferSteals sets whether a run-time steal's queued copy is written at
// once, inside the call that stole (off, the default), or left queued for
// a SealSteals batch, the call stopped with ErrStealQueued (on). Restart's
// steals are always written at once. A queue left by a failed write is
// written with the next batch, or inline, oldest first, before any other
// data-store write: a Load, a Checkpoint, an inline steal. Between
// SealSteals and Settle only Begin, Read, Write, Abort, ReadCommitted and
// the commit calls may run; a call that must read the data store returns
// ErrStealWait.
func (m *Manager) DeferSteals(on bool) { m.deferSteals = on }

// SealSteals starts a write of every queued steal: it copies their pages'
// ids, bytes and LSNs into b, oldest first, and reports whether there were
// any.
func (m *Manager) SealSteals(b *Batch) bool {
	if len(m.stolen.writes) == 0 {
		return false
	}
	b.reset(m.data)
	for _, w := range m.stolen.writes {
		b.add(w.id, w.data, w.version)
	}
	m.stealing = true
	return true
}

// settleSteals ends a write of the queue's first n pages: each leaves the
// queue, its buffer moving past the queue's end for a later copy, and is
// counted and journaled as a steal. A steal is the WAL engine's only
// stable page write outside checkpoints, so it is journaled: the forensic
// trail must show which uncommitted pages reached disk and under which
// LSN.
func (m *Manager) settleSteals(n int) {
	q := m.stolen.writes
	for _, w := range q[:n] {
		m.steals++
		m.journal.EmitPage(int64(w.id), obs.JournalRecord{Event: "steal", LSN: w.version})
	}
	for i := n; i < len(q); i++ {
		q[i-n], q[i] = q[i], q[i-n]
	}
	m.stolen.writes = q[:len(q)-n]
	m.stealing = false
}

// stolenCopy returns the newest queued copy of page p, nil when none is.
func (m *Manager) stolenCopy(p pagestore.PageID) *pageWrite {
	for i := len(m.stolen.writes) - 1; i >= 0; i-- {
		if m.stolen.writes[i].id == p {
			return &m.stolen.writes[i]
		}
	}
	return nil
}

// writeStolen writes the queued steals inline, oldest first.
func (m *Manager) writeStolen() error {
	if len(m.stolen.writes) == 0 {
		return nil
	}
	m.stolen.written = 0
	err := WriteBatch(&m.stolen)
	m.Settle(&m.stolen, err)
	return err
}

// Checkpoint takes a non-quiescing checkpoint that flushes every dirty page
// (not a fuzzy one, which would flush none): the log is forced, every dirty
// page is flushed, and each stream truncates the stable chunks no future
// recovery can need — everything below the oldest active transaction's
// first record (or below the next LSN when no transaction has written
// anything). The meta page of each stream that truncates records that
// horizon, so restart ignores dead records that survive in a chunk shared
// with live ones. Nothing is logged for the checkpoint itself. Active
// transactions stay open across it; a flushed page holding one's update
// logs its old bytes first (see writeAhead), and each flush forces the log
// through them, so when truncation writes a meta page every record below
// the next LSN is durable.
func (m *Manager) Checkpoint() error {
	if err := m.writeStolen(); err != nil {
		return err
	}
	if err := m.forceThrough(math.MaxUint64); err != nil {
		return err
	}
	var flushed int64
	for _, p := range m.pool.Keys() {
		bp := m.pool.Get(p).frame
		if !bp.dirty {
			continue
		}
		if err := m.writeAhead(bp); err != nil {
			return err
		}
		if err := m.data.Write(bp.id, bp.data, bp.lsn); err != nil {
			return err
		}
		bp.dirty = false
		flushed++
	}
	point := m.nextLSN
	for _, tid := range m.att.Keys() {
		if ts := m.att.Get(tid); ts.firstLSN != 0 && ts.firstLSN < point {
			point = ts.firstLSN
		}
	}
	m.journal.Emit(obs.JournalRecord{Event: "checkpoint", Engine: m.Name(), N: flushed})
	before := m.truncatedChunks()
	for _, s := range m.streams {
		if err := s.truncate(point); err != nil {
			return err
		}
	}
	m.journal.Emit(obs.JournalRecord{Event: "truncate", Engine: m.Name(), LSN: point, N: m.truncatedChunks() - before})
	return nil
}

func (m *Manager) truncatedChunks() int64 {
	var n int64
	for _, s := range m.streams {
		n += s.truncated
	}
	return n
}

// Crash simulates power loss: the buffer pool, active-transaction table,
// unforced log tails and steals not yet written vanish. Stable storage is
// untouched.
func (m *Manager) Crash() {
	m.resetPool()
	m.forget()
	for _, s := range m.streams {
		s.crash()
	}
}

// forget drops the transaction table, the commits waiting for a force and
// the steals not yet written, which a crash takes: restart redoes their
// pages from the log, which the write-ahead rule made durable through them.
func (m *Manager) forget() {
	m.att = pagestore.Table[uint64, *txnState]{}
	m.appended, m.sealed, m.untold = m.appended[:0], m.sealed[:0], 0
	m.stolen.writes, m.stealing = m.stolen.writes[:0], false
}

// Recover restores a consistent committed state after Crash: power is
// restored to both stores, the parallel streams are merged by LSN, history
// is repeated from the merged log, and the losers are rolled back through
// the buffer pool with logged compensation records, exactly as Abort would
// have — so a later restart, or a media recovery replaying this log, finds
// them already compensated and never undoes them twice.
//
// The log is read in one pass, each record decoded once and acted on at
// once. Records at or below the highest dead horizon on a stream's meta
// page are skipped: truncation deleted chunks below it, so the LSNs there
// are not dense, and a dead record can outlive the commit or CLR that
// settled it.
//
// Above the horizon LSNs are dense, so a missing one is a record that was
// still volatile in its stream when the power failed, and everything after
// it was appended later still. None of that can belong to a committed
// transaction — a commit forces every stream, its own last — and a delta
// must never be replayed over a page that missed an earlier one, so the log
// ends at the first gap. What lies beyond is still read, so that a stream
// whose LSNs do not ascend is reported, and then trimmed from the streams;
// its LSNs are handed out again.
//
// Redo runs through the buffer pool, as in ARIES, and writes nothing at a
// commit or abort record: a redone page stays pooled and reaches disk later, by
// a steal or a checkpoint. A page the pass reads but does not pool, because its
// stable version already covers the record, has that version kept in its slot
// of the pool's directory, so the page's later records are checked without
// reading it again. Restart thus reads a page when the log first names it and
// again only to pool it, and writes it at most once per stay in the pool.
// Restart's memory is the open transactions, one chunk per stream, the pool,
// and a version slot for each stored page the log names; the slots that hold no
// frame are dropped before Recover returns, so only the pool outlives it.
// Update records carry no old bytes, so the pass never steals a page that holds
// an update of a transaction still open in it (see pinned): a crash would leave
// that update on disk with nothing in the log to undo it from. The losers'
// pages redone in memory are rolled back there, with the old bytes their redo
// removed; an update the stable page already held is rolled back with the old
// bytes of its undo record, which the run-time write-ahead rule logged before
// the page reached disk. Such an update without one is corruption. The pool may
// grow past PoolPages while every frame is pinned; it is cut back to size once
// undo ends.
func (m *Manager) Recover() error {
	if err := m.data.Reset(); err != nil {
		return err
	}
	if err := m.logs.Reset(); err != nil {
		return err
	}
	m.scanned = 0
	m.resetPool()
	m.forget()
	defer m.DeferSteals(m.deferSteals) // restart's steals are written inline
	m.deferSteals = false

	readers := make([]*reader, len(m.streams))
	dead := uint64(0)
	for i, s := range m.streams {
		r, horizon, err := s.open()
		if err != nil {
			return err
		}
		readers[i], dead = r, max(dead, horizon)
	}
	next := dead + 1 // the LSN the live log holds next
	gap := false     // the live log has ended; the rest is read, not used
	for {
		var r *reader
		for _, h := range readers {
			if h.ok && (r == nil || h.head.LSN < r.head.LSN) {
				r = h
			}
		}
		if r == nil {
			break
		}
		m.scanned++
		switch lsn := r.head.LSN; {
		case lsn <= dead || gap:
		case lsn < next:
			return fmt.Errorf("wal: LSN %d is in the log twice", lsn)
		case lsn > next:
			gap = true
		default:
			next++
			if err := m.repeat(&r.head); err != nil {
				return err
			}
		}
		if err := r.next(); err != nil {
			return err
		}
	}
	m.nextLSN = next

	// The transactions still open are the losers.
	losers := m.att.Keys()
	sort.Slice(losers, func(i, j int) bool { return m.att.Get(losers[i]).firstLSN < m.att.Get(losers[j]).firstLSN })
	for _, tid := range losers {
		for _, u := range m.att.Get(tid).updates {
			if u.old == nil && u.del > 0 {
				return fmt.Errorf("wal: stream %d: no undo record for txn %d's update at LSN %d, which page %d holds on disk",
					m.cfg.Selection.pick(m.cfg.Streams, tid, int64(u.page)), tid, u.lsn, u.page)
			}
		}
		m.journal.Emit(obs.JournalRecord{Event: "loser", Txn: tid})
	}
	m.journal.Emit(obs.JournalRecord{Event: "scan", Engine: m.Name(), N: m.scanned})
	if gap {
		var trimmed int64
		for _, s := range m.streams {
			n, err := s.trim(next)
			trimmed += n
			if err != nil {
				return err
			}
		}
		m.journal.Emit(obs.JournalRecord{Event: "trim", Engine: m.Name(), LSN: next, N: trimmed})
	}

	// Undo: the losers' uncompensated updates, newest first across all of
	// them, through the pool, which holds the pages redone for them.
	// Compensated updates were rolled back by their own CLRs during redo;
	// undoing them again would clobber later committed work.
	type pending struct{ lsn, tid uint64 }
	var undo []pending
	for _, tid := range losers {
		for _, u := range m.att.Get(tid).updates {
			undo = append(undo, pending{u.lsn, tid})
		}
	}
	sort.Slice(undo, func(i, j int) bool { return undo[i].lsn > undo[j].lsn })
	for _, p := range undo {
		ts := m.att.Get(p.tid)
		pg := ts.updates[len(ts.updates)-1].page
		if err := m.compensate(p.tid, ts); err != nil {
			return err
		}
		m.journal.EmitPage(int64(pg), obs.JournalRecord{Event: "undo", Txn: p.tid, LSN: p.lsn})
		if len(ts.updates) == 0 {
			m.appendRec(Record{Type: RecAbort, Txn: p.tid})
		}
	}
	for _, tid := range losers {
		m.endTxn(tid, m.att.Get(tid))
	}
	for m.frames > m.cfg.PoolPages {
		if err := m.evict(m.lru.next); err != nil {
			return err
		}
	}
	for _, p := range m.pool.Keys() { // only the pool outlives restart
		if m.pool.Get(p).frame == nil {
			m.pool.Delete(p)
		}
	}
	return nil
}

// repeat acts on one live record at restart. The transaction table follows
// the record's transaction, which a commit or abort record ends: that
// unpins the pages it redid and writes nothing. An update or CLR is
// redone. An open transaction keeps what rolling its updates back takes,
// less what its CLRs already rolled back; an undo record supplies the old
// bytes of an update the stable page already held. The old bytes are
// copied out of the chunk or page.
func (m *Manager) repeat(r *Record) error {
	ts := m.att.Get(r.Txn)
	if ts == nil {
		if r.Type == RecUndo {
			return nil // it covers no update still open
		}
		ts = m.openTxn(r.Txn)
		ts.firstLSN = r.LSN
	}
	switch r.Type {
	case RecCommit, RecAbort:
		ev := "winner"
		if r.Type == RecAbort {
			ev = "loser"
		}
		m.endTxn(r.Txn, ts)
		m.journal.Emit(obs.JournalRecord{Event: ev, Txn: r.Txn})
	case RecUndo:
		for i := len(ts.updates) - 1; i >= 0; i-- {
			u := &ts.updates[i]
			if u.lsn != r.CompLSN {
				continue
			}
			if len(r.Old) != u.del {
				return fmt.Errorf("wal: undo record at LSN %d holds %d bytes, but the update at LSN %d removed %d", r.LSN, len(r.Old), u.lsn, u.del)
			}
			if u.old == nil {
				u.old = ts.keep(r.Old)
			}
			u.undo = r.LSN
			break
		}
	case RecUpdate:
		old, err := m.redo(r, ts)
		if err != nil {
			return err
		}
		if !r.IsCLR() {
			ts.updates = append(ts.updates, undoRec{lsn: r.LSN, page: pagestore.PageID(r.Page),
				off: r.Off, ins: len(r.New), del: r.Del, old: old})
			break
		}
		for i := len(ts.updates) - 1; i >= 0; i-- {
			if ts.updates[i].lsn == r.CompLSN {
				ts.updates = append(ts.updates[:i], ts.updates[i+1:]...)
				break
			}
		}
	}
	return nil
}

// redo repeats update or CLR r of ts at restart, unless the stable page
// already holds it, and returns the bytes an update removed (nil if it did
// not redo it). It looks up the page's slot in the pool's directory. A
// pooled page is redone in its frame. A page whose slot holds no version
// that covers r is read into the spare buffer; if the version read covers r
// it goes into the slot, else the page is pooled, in the frame redoVictim
// picks. Only pooled pages are written, at their LSN, so a page's stable
// version only rises during the pass: a slot never overstates it. A page
// once pooled has no later record at or below that version, so evict drops
// the slot whole. Strict two-phase locking lets no other transaction change
// a pinned page; a log in which one does is corrupt.
func (m *Manager) redo(r *Record, ts *txnState) (old []byte, err error) {
	id := pagestore.PageID(r.Page)
	s := m.pool.Get(id)
	bp := s.frame
	switch {
	case bp == nil:
		if s.version >= r.LSN {
			return nil, nil
		}
		data, version, err := m.fetch(id)
		if err != nil {
			return nil, err
		}
		if version >= r.LSN {
			m.pool.Put(id).version = version
			return nil, nil
		}
		if bp, err = m.admit(id, data, version, m.redoVictim()); err != nil {
			return nil, err
		}
	case bp.txn != r.Txn && m.pinned(bp):
		return nil, fmt.Errorf("wal: LSN %d: txn %d changes page %d while txn %d, still open, holds it", r.LSN, r.Txn, r.Page, bp.txn)
	default:
		bp.unlink()
		m.pushNewest(bp)
	}
	if r.Off+r.Del > len(bp.data) {
		return nil, fmt.Errorf("wal: redo of LSN %d on page %d: delta at %d (-%d +%d) reaches past the page's %d bytes", r.LSN, r.Page, r.Off, r.Del, len(r.New), len(bp.data))
	}
	if !r.IsCLR() {
		old = ts.keep(bp.data[r.Off : r.Off+r.Del])
	}
	data, err := splice(bp.data, r.Off, r.Del, r.New)
	if err != nil {
		return nil, err
	}
	bp.data, bp.lsn, bp.txn, bp.dirty = data, r.LSN, r.Txn, true
	note := ""
	if r.IsCLR() {
		note = "clr"
	}
	m.journal.EmitPage(r.Page, obs.JournalRecord{Event: "redo", Txn: r.Txn, LSN: r.LSN, Note: note})
	return old, nil
}

// redoVictim picks the frame restart's pass recycles for a page it redoes:
// none while the pool has room, else the least recently used frame not
// pinned, and none again, so that the pool grows, when every frame is.
func (m *Manager) redoVictim() *bufPage {
	if m.frames < m.cfg.PoolPages {
		return nil
	}
	for bp := m.lru.next; bp != &m.lru; bp = bp.next {
		if !m.pinned(bp) {
			return bp
		}
	}
	return nil
}

// pinned reports whether restart must keep pooled page bp off the disk: the
// transaction that last redid it is still open in the pass. Transaction ids
// recur from one process to the next, so what must still be open is the
// incarnation that redid the page, the one whose first record is at or
// below the page's LSN.
func (m *Manager) pinned(bp *bufPage) bool {
	ts := m.att.Get(bp.txn)
	return ts != nil && ts.firstLSN <= bp.lsn
}

// ReadCommitted reads page p's current contents; meaningful once no
// transaction is active (for example right after Recover).
func (m *Manager) ReadCommitted(p int64) ([]byte, error) { return m.Read(0, p) }

// Stats reports counters: steals (dirty evictions), dirty pages written
// while an active transaction had an uncompensated update on them (by a
// steal or a checkpoint's flush), the log records the last Recover merged,
// and per-stream record, force and byte counts. Restart's redo and undo
// actions are the journal's redo and undo events.
func (m *Manager) Stats() map[string]int64 {
	out := map[string]int64{
		"steals":            m.steals,
		"stealsUncommitted": m.uncommit,
		"scanned":           m.scanned,
	}
	for _, s := range m.streams {
		out[fmt.Sprintf("stream%d.records", s.idx)] = s.records
		out[fmt.Sprintf("stream%d.forces", s.idx)] = s.forces
		out[fmt.Sprintf("stream%d.truncated", s.idx)] = s.truncated
		out["truncatedChunks"] += s.truncated
		out["logBytes"] += s.bytes
	}
	return out
}
