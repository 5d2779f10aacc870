package wal

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// Config parameterizes the WAL manager.
type Config struct {
	// Streams is the number of parallel log streams (the paper's log
	// processors). Default 1.
	Streams int
	// Selection assigns records to streams.
	Selection Selection
	// LogStore, when non-nil, holds the log instead of a fresh in-memory
	// store. It must have page size LogChunkSize. This is the seam that
	// lets the log live on a file-backed store (pagestore/filestore) while
	// the manager stays medium-agnostic.
	LogStore *pagestore.Store
	// PoolPages is the buffer pool capacity in pages. Default 64.
	PoolPages int
	// Seed feeds the Random selection policy.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Streams == 0 {
		c.Streams = 1
	}
	if c.PoolPages == 0 {
		c.PoolPages = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// bufPage is one pooled page. The pool's pages form a ring through
// prev/next, least recently used first, anchored at Manager.lru.
type bufPage struct {
	id         pagestore.PageID
	data       []byte
	lsn        uint64
	dirty      bool
	prev, next *bufPage
}

// undoRec is what rolling one update back takes: put old back where the
// update left ins bytes.
type undoRec struct {
	lsn  uint64
	page pagestore.PageID
	off  int
	ins  int
	old  []byte
}

// txnState tracks an active transaction. firstLSN and lastLSN stay zero
// until its first update: a transaction that changed nothing has no
// records, pins no log, and ends without touching the log.
type txnState struct {
	firstLSN uint64
	lastLSN  uint64
	updates  []undoRec // not yet compensated, oldest first
}

// Manager is the WAL recovery engine: steal/no-force buffer management over
// a data page store, with parallel log streams on a log store. The Manager
// is a pure, single-threaded recovery kernel — no locks, goroutines, or
// channels (simlint rule D004 enforces this) — so its behaviour is a
// deterministic function of the call sequence. Concurrent callers must go
// through the thread-safe wrapper in internal/engine, whose page-level
// strict two-phase locking the delta records rely on: a record's byte range
// is exact only against the page its writer saw, so no other transaction
// may change a page between an update and its transaction's end.
type Manager struct {
	cfg     Config
	data    *pagestore.Store
	logs    *pagestore.Store
	streams []*stream
	sel     *selector
	nextLSN uint64
	scratch []byte // one record's encoding, between Marshal and the stream

	pool map[pagestore.PageID]*bufPage
	lru  bufPage // ring anchor: lru.next is the eviction victim

	att map[uint64]*txnState

	steals     int64
	redone     int64
	undone     int64
	scanned    int64 // log records merged by the last Recover
	recoveries int64

	// archiveLSN pins log truncation while an archive snapshot is live:
	// records above it must survive for media recovery.
	archiveLSN uint64

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
	if 2*dataStore.PageSize()+maxRecHeader > logChunkSize {
		panic("wal: data pages too large for a record to fit one log chunk")
	}
	m := &Manager{
		cfg:     cfg,
		data:    dataStore,
		logs:    logs,
		sel:     newSelector(cfg.Selection, cfg.Streams, cfg.Seed),
		nextLSN: 1,
		att:     make(map[uint64]*txnState),
	}
	m.resetPool()
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

// Stores lists the manager's stable stores (data first, then the log) for
// snapshot/backup through the engine.Guard. The stores are the thread-safe
// substrate, exempt from the kernel-state escape rule by contract.
func (m *Manager) Stores() []*pagestore.Store {
	return []*pagestore.Store{m.data, m.logs}
}

// SetJournal attaches (or with nil detaches) the structured recovery
// journal. Subsequent Recover and Checkpoint calls emit their decisions to
// it.
func (m *Manager) SetJournal(j *obs.Journal) { m.journal = j }

// Load populates page p with initial data, bypassing logging. Call before
// running transactions.
func (m *Manager) Load(p pagestore.PageID, data []byte) error {
	if err := m.data.Write(p, data, 0); err != nil {
		return err
	}
	m.journal.Emit(obs.JournalRecord{Event: "load", Page: obs.JournalPage(int64(p))})
	return nil
}

// Begin starts transaction tid. Nothing is logged: the transaction enters
// the log with its first update.
func (m *Manager) Begin(tid uint64) error {
	if _, ok := m.att[tid]; ok {
		return fmt.Errorf("wal: transaction %d already active", tid)
	}
	m.att[tid] = &txnState{}
	return nil
}

// Read returns the current contents of page p as seen by tid (its own
// uncommitted writes included).
func (m *Manager) Read(tid uint64, p pagestore.PageID) ([]byte, error) {
	bp, err := m.getPage(p)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), bp.data...), nil
}

// Write replaces page p with data on behalf of tid, logging the byte range
// that changes first (the write-ahead protocol: the record is buffered now
// and forced before the page can reach stable storage). A write that
// changes nothing logs nothing.
func (m *Manager) Write(tid uint64, p pagestore.PageID, data []byte) error {
	ts := m.att[tid]
	if ts == nil {
		return fmt.Errorf("wal: transaction %d not active", tid)
	}
	if len(data) > m.data.PageSize() {
		return fmt.Errorf("wal: page %d: %d bytes exceeds page size %d", p, len(data), m.data.PageSize())
	}
	bp, err := m.getPage(p)
	if err != nil {
		return err
	}
	off, del, ins := diff(bp.data, data)
	if del == 0 && len(ins) == 0 {
		return nil
	}
	old := append([]byte(nil), bp.data[off:off+del]...)
	lsn := m.appendRec(Record{
		Type:    RecUpdate,
		Txn:     tid,
		Page:    int64(p),
		PrevLSN: ts.lastLSN,
		Off:     off,
		Del:     del,
		Old:     old,
		New:     ins,
	})
	if ts.firstLSN == 0 {
		ts.firstLSN = lsn
	}
	ts.lastLSN = lsn
	ts.updates = append(ts.updates, undoRec{lsn: lsn, page: p, off: off, ins: len(ins), old: old})
	bp.data = append(bp.data[:0], data...)
	bp.lsn = lsn
	bp.dirty = true
	return nil
}

// Commit makes tid durable: its commit record is appended and every stream
// is forced. An error means the commit is in doubt (power failed mid-force);
// recovery decides the outcome. A transaction that changed nothing has
// nothing to make durable: no record, no force.
func (m *Manager) Commit(tid uint64) error {
	ts := m.att[tid]
	if ts == nil {
		return fmt.Errorf("wal: transaction %d not active", tid)
	}
	if ts.lastLSN == 0 {
		delete(m.att, tid)
		m.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid})
		return nil
	}
	// Force the commit record's stream last. The restart merge treats a
	// durable commit record as proof the transaction's updates are durable
	// too, which only holds if every other stream — where those updates may
	// live — reaches disk before the commit record can. A crash anywhere in
	// this sequence then leaves either no commit record (the transaction is
	// undone whole) or a complete transaction: atomic, never torn.
	lsn, ci := m.appendRecOn(Record{Type: RecCommit, Txn: tid, PrevLSN: ts.lastLSN})
	for i, s := range m.streams {
		if i == ci {
			continue
		}
		if err := s.force(); err != nil {
			return fmt.Errorf("wal: commit %d in doubt: %w", tid, err)
		}
	}
	if err := m.streams[ci].force(); err != nil {
		return fmt.Errorf("wal: commit %d in doubt: %w", tid, err)
	}
	delete(m.att, tid)
	m.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid, LSN: lsn})
	return nil
}

// Abort rolls back tid by putting its old bytes back, newest update first.
// Each restoration is itself logged as a compensation record, so recovery
// never undoes work that was already rolled back — even if a later
// transaction committed changes to the same pages. A transaction that
// changed nothing leaves the log alone.
func (m *Manager) Abort(tid uint64) error {
	ts := m.att[tid]
	if ts == nil {
		return fmt.Errorf("wal: transaction %d not active", tid)
	}
	n := len(ts.updates)
	for len(ts.updates) > 0 {
		if err := m.compensate(tid, ts); err != nil {
			return err
		}
	}
	if ts.lastLSN != 0 {
		m.appendRec(Record{Type: RecAbort, Txn: tid, PrevLSN: ts.lastLSN})
	}
	delete(m.att, tid)
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
	lsn := m.appendRec(Record{
		Type:    RecUpdate,
		Txn:     tid,
		Page:    int64(u.page),
		PrevLSN: ts.lastLSN,
		CompLSN: u.lsn,
		Off:     u.off,
		Del:     u.ins,
		New:     u.old,
	})
	ts.lastLSN = lsn
	ts.updates = ts.updates[:len(ts.updates)-1]
	bp.data = data
	bp.lsn = lsn
	bp.dirty = true
	return nil
}

// appendRec assigns the next LSN and buffers the record on its stream.
func (m *Manager) appendRec(rec Record) uint64 {
	lsn, _ := m.appendRecOn(rec)
	return lsn
}

// appendRecOn is appendRec, additionally reporting which stream the record
// landed on — selection policies like Cyclic are stateful, so the choice
// cannot be re-derived after the fact.
func (m *Manager) appendRecOn(rec Record) (uint64, int) {
	rec.LSN = m.nextLSN
	m.nextLSN++
	i := m.sel.pick(rec.Txn, rec.Page)
	m.scratch = rec.Marshal(m.scratch[:0])
	m.streams[i].append(rec.LSN, m.scratch)
	return rec.LSN, i
}

func (m *Manager) forceAll() error {
	for _, s := range m.streams {
		if err := s.force(); err != nil {
			return err
		}
	}
	return nil
}

// forceThrough makes the log durable up to lsn: every stream whose oldest
// volatile record is at or below lsn is forced. A stream's LSNs ascend, so
// a stream whose volatile head lies above lsn holds nothing the
// write-ahead rule needs, and is left alone.
func (m *Manager) forceThrough(lsn uint64) error {
	for _, s := range m.streams {
		if head := s.head(); head == 0 || head > lsn {
			continue
		}
		if err := s.force(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) resetPool() {
	m.pool = make(map[pagestore.PageID]*bufPage)
	m.lru.prev, m.lru.next = &m.lru, &m.lru
}

// getPage returns the pooled page, fetching (and possibly evicting) as
// needed. Pages never stored read as empty.
func (m *Manager) getPage(p pagestore.PageID) (*bufPage, error) {
	if bp, ok := m.pool[p]; ok {
		bp.unlink()
		m.pushNewest(bp)
		return bp, nil
	}
	data, version, err := m.data.Read(p)
	if err == pagestore.ErrNotFound {
		data, version = nil, 0
	} else if err != nil {
		return nil, err
	}
	if err := m.evictIfFull(); err != nil {
		return nil, err
	}
	bp := &bufPage{id: p, data: data, lsn: version}
	m.pool[p] = bp
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

// evictIfFull applies LRU replacement. A dirty victim triggers the
// write-ahead rule: the log must be durable up to the page's LSN before the
// page is stolen to disk. The victim is the least recently used page, whose
// records a commit has usually forced long ago, so most steals cost the page
// write alone.
func (m *Manager) evictIfFull() error {
	for len(m.pool) >= m.cfg.PoolPages {
		bp := m.lru.next
		if bp.dirty {
			if err := m.forceThrough(bp.lsn); err != nil {
				return err
			}
			if err := m.data.Write(bp.id, bp.data, bp.lsn); err != nil {
				return err
			}
			m.steals++
			// A steal is the WAL engine's only stable page write outside
			// checkpoints, so it is journaled: the forensic trail must show
			// which uncommitted pages reached disk and under which LSN.
			m.journal.Emit(obs.JournalRecord{Event: "steal", Page: obs.JournalPage(int64(bp.id)), LSN: bp.lsn})
		}
		bp.unlink()
		delete(m.pool, bp.id)
	}
	return nil
}

// Checkpoint takes a fuzzy checkpoint: the log is forced, every dirty page
// is flushed, a checkpoint record is logged, and each stream truncates the
// stable chunks no future recovery can need — everything below the oldest
// active transaction's first record (or below the checkpoint itself when
// no transaction has written anything). The checkpoint record carries that
// horizon, so restart ignores dead records that survive in a chunk shared
// with live ones. Transactions keep running throughout.
func (m *Manager) Checkpoint() error {
	if err := m.forceAll(); err != nil {
		return err
	}
	pooled := make([]pagestore.PageID, 0, len(m.pool))
	for p := range m.pool {
		pooled = append(pooled, p)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	var flushed int64
	for _, p := range pooled {
		bp := m.pool[p]
		if !bp.dirty {
			continue
		}
		if err := m.data.Write(p, bp.data, bp.lsn); err != nil {
			return err
		}
		bp.dirty = false
		flushed++
	}
	point := m.nextLSN // the checkpoint record's own LSN
	for _, ts := range m.att {
		if ts.firstLSN != 0 && ts.firstLSN < point {
			point = ts.firstLSN
		}
	}
	if m.archiveLSN > 0 && m.archiveLSN+1 < point {
		point = m.archiveLSN + 1 // retain the suffix media recovery needs
	}
	cpLSN := m.appendRec(Record{Type: RecCheckpoint, PrevLSN: point - 1})
	if err := m.forceAll(); err != nil {
		return err
	}
	m.journal.Emit(obs.JournalRecord{Event: "checkpoint", Engine: m.Name(), LSN: cpLSN, N: flushed})
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

// Crash simulates power loss: the buffer pool, active-transaction table and
// unforced log tails vanish. Stable storage is untouched.
func (m *Manager) Crash() {
	m.resetPool()
	m.att = make(map[uint64]*txnState)
	for _, s := range m.streams {
		s.crash()
	}
}

// Recover restores a consistent committed state after Crash: power is
// restored to both stores, the parallel streams are merged by LSN, history
// is repeated from the merged log, and the losers are rolled back through
// the buffer pool with logged compensation records, exactly as Abort would
// have — so a later restart, or a media recovery replaying this log, finds
// them already compensated and never undoes them twice.
func (m *Manager) Recover() error {
	if err := m.data.Reset(); err != nil {
		return err
	}
	if err := m.logs.Reset(); err != nil {
		return err
	}
	m.recoveries++

	var all []Record
	for _, s := range m.streams {
		recs, err := s.readStable()
		if err != nil {
			return err
		}
		all = append(all, recs...)
	}
	if len(m.streams) > 1 {
		sort.Slice(all, func(i, j int) bool { return all[i].LSN < all[j].LSN })
	}
	m.scanned = int64(len(all))
	m.journal.Emit(obs.JournalRecord{Event: "scan", Engine: m.Name(), N: m.scanned})

	all, err := m.livePrefix(all)
	if err != nil {
		return err
	}

	// Analysis: which transactions committed, and which loser updates were
	// already compensated by a durable CLR?
	committed := map[uint64]bool{}
	compensated := map[uint64]bool{} // update LSNs with a durable CLR
	for _, r := range all {
		switch {
		case r.Type == RecCommit:
			committed[r.Txn] = true
		case r.Type == RecUpdate && r.IsCLR():
			compensated[r.CompLSN] = true
		}
	}

	// Classify in first-appearance (LSN) order — never by iterating the
	// committed map, whose order is nondeterministic — and collect what the
	// losers' rollback needs: per loser its uncompensated updates, and
	// across losers the order they were made in.
	txns := map[uint64]*txnState{} // every transaction in the log; nil for a winner
	var undo []uint64              // the loser behind each uncompensated update, in LSN order
	for i := range all {
		r := &all[i]
		if r.Txn == 0 {
			continue // checkpoint record
		}
		ts, seen := txns[r.Txn]
		if !seen {
			ev := "winner"
			if !committed[r.Txn] {
				ev, ts = "loser", &txnState{}
			}
			txns[r.Txn] = ts
			m.journal.Emit(obs.JournalRecord{Event: ev, Txn: r.Txn})
		}
		if ts == nil {
			continue
		}
		ts.lastLSN = r.LSN
		if r.Type == RecUpdate && !r.IsCLR() && !compensated[r.LSN] {
			ts.updates = append(ts.updates, undoRec{
				lsn: r.LSN, page: pagestore.PageID(r.Page), off: r.Off, ins: len(r.New), old: r.Old,
			})
			undo = append(undo, r.Txn)
		}
	}

	// Redo: repeat history — every durable update and CLR, winners and
	// losers alike, in LSN order.
	for i := range all {
		if all[i].Type != RecUpdate {
			continue
		}
		if err := m.redoOne(&all[i]); err != nil {
			return err
		}
	}

	// Undo: the losers' uncompensated updates, newest first across all of
	// them. Compensated updates were rolled back by their own CLRs during
	// redo; undoing them again would clobber later committed work.
	m.resetPool()
	m.att = make(map[uint64]*txnState)
	for i := len(undo) - 1; i >= 0; i-- {
		tid := undo[i]
		ts := txns[tid]
		u := ts.updates[len(ts.updates)-1]
		if err := m.compensate(tid, ts); err != nil {
			return err
		}
		m.undone++
		m.journal.Emit(obs.JournalRecord{Event: "undo", Txn: tid, Page: obs.JournalPage(int64(u.page)), LSN: u.lsn})
		if len(ts.updates) == 0 {
			m.appendRec(Record{Type: RecAbort, Txn: tid, PrevLSN: ts.lastLSN})
		}
	}
	return nil
}

// livePrefix cuts the merged log down to what restart may use, and sets
// nextLSN behind it.
//
// Records at or below the newest checkpoint's dead horizon are dropped:
// truncation deletes whole chunks, so a dead record can outlive the commit
// or CLR that settled it, and must not be mistaken for a loser's.
//
// Above the horizon LSNs are dense, so a missing one is a record that was
// still volatile in its stream when the power failed, and everything after
// it was appended later still. None of that can belong to a committed
// transaction — a commit forces every stream, its own last — and a delta
// must never be replayed over a page that missed an earlier one, so the log
// ends at the first gap. What lies beyond is trimmed from the streams, and
// the LSNs are handed out again.
func (m *Manager) livePrefix(all []Record) ([]Record, error) {
	var dead uint64
	for i := range all {
		if all[i].Type == RecCheckpoint && all[i].PrevLSN > dead {
			dead = all[i].PrevLSN
		}
	}
	live := all[:0]
	next := dead + 1
	gap := false
	for i := range all {
		lsn := all[i].LSN
		if lsn <= dead {
			continue
		}
		if lsn < next {
			return nil, fmt.Errorf("wal: LSN %d is in the log twice", lsn)
		}
		if lsn > next {
			gap = true
			break
		}
		live = append(live, all[i])
		next++
	}
	m.nextLSN = next
	if !gap {
		return live, nil
	}
	var trimmed int64
	for _, s := range m.streams {
		n, err := s.trim(next)
		trimmed += n
		if err != nil {
			return nil, err
		}
	}
	m.journal.Emit(obs.JournalRecord{Event: "trim", Engine: m.Name(), LSN: next, N: trimmed})
	return live, nil
}

// redoOne repeats one update against the stable page unless the page
// already holds it.
func (m *Manager) redoOne(r *Record) error {
	id := pagestore.PageID(r.Page)
	data, version, err := m.data.Read(id)
	if err == pagestore.ErrNotFound {
		data, version = nil, 0
	} else if err != nil {
		return err
	}
	if version >= r.LSN {
		return nil // already applied
	}
	if data, err = splice(data, r.Off, r.Del, r.New); err != nil {
		return fmt.Errorf("wal: redo of LSN %d on page %d: %w", r.LSN, r.Page, err)
	}
	m.redone++
	note := ""
	if r.IsCLR() {
		note = "clr"
	}
	m.journal.Emit(obs.JournalRecord{Event: "redo", Txn: r.Txn, Page: obs.JournalPage(r.Page), LSN: r.LSN, Note: note})
	return m.data.Write(id, data, r.LSN)
}

// ReadCommitted reads page p's current contents; meaningful once no
// transaction is active (for example right after Recover).
func (m *Manager) ReadCommitted(p pagestore.PageID) ([]byte, error) {
	bp, err := m.getPage(p)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), bp.data...), nil
}

// Stats reports counters: steals (dirty evictions), redo and undo actions,
// and per-stream record, force and byte counts.
func (m *Manager) Stats() map[string]int64 {
	out := map[string]int64{
		"steals":     m.steals,
		"redone":     m.redone,
		"undone":     m.undone,
		"scanned":    m.scanned,
		"recoveries": m.recoveries,
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
