package shadoweng

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// VersionEngine implements the version-selection shadow architecture
// (Section 3.2.2.1): every logical page owns two physically adjacent blocks
// holding the current and shadow versions, each stamped with the commit
// timestamp of the transaction that wrote it. A read fetches both blocks and
// selects the newer valid one — no page table, no indirection. An update
// overwrites the *older* block; the commit record (a timestamp page) makes
// the new versions current atomically.
//
// The engine pays the architecture's documented price: double the disk
// space, and both blocks transferred on every read.
type VersionEngine struct {
	store *pagestore.Store

	// committedTS is the highest committed timestamp; versions stamped
	// above it belong to uncommitted transactions and are ignored by reads.
	committedTS uint64
	nextTS      uint64

	att map[uint64]*vsTxn

	commits, aborts int64

	// journal, when attached, records recovery decisions in order (nil is
	// a no-op sink; survives Crash).
	journal *obs.Journal
}

type vsTxn struct {
	ts      uint64        // tentative timestamp for this transaction
	touched map[int64]int // logical page -> block side written (0/1)
	order   []int64
}

// Block ids: logical page p owns blocks 2p and 2p+1 in a dedicated positive
// range offset; the timestamp word of the store is the version stamp.
const vsTSPage pagestore.PageID = -5000000

func vsBlock(p int64, side int) pagestore.PageID {
	return pagestore.PageID(2*p + int64(side))
}

// NewVersion creates a version-selection engine on store. The store must be
// dedicated to this engine (it owns the whole block space).
func NewVersion(store *pagestore.Store) (*VersionEngine, error) {
	e := &VersionEngine{
		store:  store,
		nextTS: 1,
		att:    make(map[uint64]*vsTxn),
	}
	if err := e.writeTS(0); err != nil {
		return nil, err
	}
	return e, nil
}

// Name identifies the engine.
func (e *VersionEngine) Name() string { return "shadow(version-selection)" }

// SetJournal attaches (or with nil detaches) the structured recovery
// journal. Subsequent Recover calls emit their decisions to it.
func (e *VersionEngine) SetJournal(j *obs.Journal) { e.journal = j }

// Stores lists the engine's stable stores for snapshot/backup through the
// engine.Guard. The store is the thread-safe substrate, exempt from the
// kernel-state escape rule by contract.
func (e *VersionEngine) Stores() []*pagestore.Store { return []*pagestore.Store{e.store} }

func (e *VersionEngine) writeTS(ts uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ts)
	if err := e.store.Write(vsTSPage, buf[:], ts); err != nil {
		return err
	}
	e.committedTS = ts
	// Bumping the committed-timestamp page is this engine's atomic commit
	// point, so it is the journaled durability decision on the forward path.
	e.journal.Emit(obs.JournalRecord{Event: "flip", Engine: e.Name(), LSN: ts})
	return nil
}

// Load populates page p before transactions run (timestamp 0 on side 0).
func (e *VersionEngine) Load(p int64, data []byte) error {
	if err := e.store.Write(vsBlock(p, 0), data, 0); err != nil {
		return err
	}
	e.journal.Emit(obs.JournalRecord{Event: "load", Page: obs.JournalPage(p)})
	return nil
}

// Begin starts transaction tid.
func (e *VersionEngine) Begin(tid uint64) error {
	if _, ok := e.att[tid]; ok {
		return fmt.Errorf("shadoweng: transaction %d already active", tid)
	}
	e.nextTS++
	e.att[tid] = &vsTxn{ts: e.nextTS, touched: make(map[int64]int)}
	return nil
}

// selectVersion fetches both blocks of p and picks the newest whose stamp is
// visible (committed, or belonging to the asking transaction).
func (e *VersionEngine) selectVersion(p int64, ownTS uint64) ([]byte, error) {
	var best []byte
	bestTS := uint64(0)
	found := false
	for side := 0; side < 2; side++ {
		data, ts, err := e.store.Read(vsBlock(p, side))
		if errors.Is(err, pagestore.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if ts > e.committedTS && ts != ownTS {
			continue // uncommitted version of another transaction
		}
		if !found || ts > bestTS {
			best, bestTS, found = data, ts, true
		}
	}
	if !found {
		return nil, nil
	}
	return best, nil
}

// Read returns page p as seen by tid.
func (e *VersionEngine) Read(tid uint64, p int64) ([]byte, error) {
	t, ok := e.att[tid]
	if !ok {
		return nil, fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	return e.selectVersion(p, t.ts)
}

// Write stores data in the older block of p's pair, stamped with the
// transaction's tentative timestamp; the current version is untouched.
func (e *VersionEngine) Write(tid uint64, p int64, data []byte) error {
	t, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	side, touched := t.touched[p]
	if !touched {
		side = e.olderSide(p, t.ts)
		t.touched[p] = side
		t.order = append(t.order, p)
	}
	if err := e.store.Write(vsBlock(p, side), data, t.ts); err != nil {
		return err
	}
	e.journal.Emit(obs.JournalRecord{Event: "shadow", Txn: tid, Page: obs.JournalPage(p), N: int64(side)})
	return nil
}

// olderSide picks the block to overwrite: a missing block, a garbage block
// (tentative stamp above the committed horizon, left by an aborted or
// crashed transaction), or the side with the older committed stamp — never
// the current committed version.
func (e *VersionEngine) olderSide(p int64, ownTS uint64) int {
	// rank: lower is more overwritable.
	rank := func(side int) uint64 {
		_, stamp, err := e.store.Read(vsBlock(p, side))
		if err != nil {
			return 0 // missing: best victim
		}
		if stamp > e.committedTS && stamp != ownTS {
			return 1 // garbage from an aborted/crashed transaction
		}
		return 2 + stamp // committed: older stamp loses
	}
	if rank(0) <= rank(1) {
		return 0
	}
	return 1
}

// Commit publishes tid's versions: bumping the committed-timestamp page to
// the transaction's stamp is the atomic commit point. Timestamps become
// visible in order, one commit at a time, and transactions commit in any
// order, so the stamp a commit publishes may be one another active
// transaction already wrote its blocks with; that transaction moves to a
// fresh stamp first.
func (e *VersionEngine) Commit(tid uint64) error {
	t, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	// All of this transaction's blocks are already on disk with stamp t.ts.
	// Making t.ts visible must not leak other transactions' tentative
	// stamps below it: restamp to one above the committed horizon.
	target := e.committedTS + 1
	// Stamps are unique and every active one is above the horizon, so at
	// most one other transaction holds target.
	var holder *vsTxn
	for otid, o := range e.att {
		if otid != tid && o.ts == target {
			holder = o
		}
	}
	if holder != nil {
		e.nextTS++
		if err := e.restamp(holder, e.nextTS); err != nil {
			return err
		}
	}
	if t.ts != target {
		if err := e.restamp(t, target); err != nil {
			return err
		}
	}
	if err := e.writeTS(target); err != nil {
		return fmt.Errorf("shadoweng: commit %d in doubt: %w", tid, err)
	}
	delete(e.att, tid)
	e.commits++
	e.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid, LSN: target})
	return nil
}

// restamp rewrites every block t has written with stamp ts.
func (e *VersionEngine) restamp(t *vsTxn, ts uint64) error {
	for _, p := range t.order {
		side := t.touched[p]
		data, _, err := e.store.Read(vsBlock(p, side))
		if err != nil {
			return err
		}
		if err := e.store.Write(vsBlock(p, side), data, ts); err != nil {
			return err
		}
	}
	t.ts = ts
	return nil
}

// Abort discards tid's tentative blocks so their stamps can never collide
// with a future committed timestamp.
func (e *VersionEngine) Abort(tid uint64) error {
	t, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	for _, p := range t.order {
		if err := e.store.Delete(vsBlock(p, t.touched[p])); err != nil {
			return err
		}
	}
	delete(e.att, tid)
	e.aborts++
	e.journal.Emit(obs.JournalRecord{Event: "abort", Txn: tid, N: int64(len(t.order))})
	return nil
}

// Crash drops volatile state.
func (e *VersionEngine) Crash() {
	e.att = nil
}

// Recover reads the committed-timestamp page; version selection then
// resolves every page to its newest committed version. Tentative stamps
// above the horizon are garbage that future writes overwrite.
func (e *VersionEngine) Recover() error {
	if err := e.store.Reset(); err != nil {
		return err
	}
	buf, ts, err := e.store.Read(vsTSPage)
	if err != nil {
		return fmt.Errorf("shadoweng: no timestamp page: %w", err)
	}
	stored := binary.BigEndian.Uint64(buf)
	if stored != ts {
		return fmt.Errorf("shadoweng: timestamp page corrupt (%d vs %d)", stored, ts)
	}
	e.committedTS = stored
	e.nextTS = stored + 1
	e.journal.Emit(obs.JournalRecord{Event: "root", Engine: e.Name(), LSN: stored})
	e.att = make(map[uint64]*vsTxn)
	// Scrub tentative stamps left by transactions lost in the crash: they
	// must not collide with the stamps future commits will publish.
	var scrubbed int64
	for _, id := range e.store.Keys() {
		if id < 0 {
			continue // metadata
		}
		_, stamp, err := e.store.Read(id)
		if err != nil {
			return err
		}
		if stamp > stored {
			if err := e.store.Delete(id); err != nil {
				return err
			}
			scrubbed++
		}
	}
	e.journal.Emit(obs.JournalRecord{Event: "gc", Engine: e.Name(), N: scrubbed})
	return nil
}

// ReadCommitted resolves the committed version of page p.
func (e *VersionEngine) ReadCommitted(p int64) ([]byte, error) {
	return e.selectVersion(p, 0)
}

// Stats reports counters.
func (e *VersionEngine) Stats() map[string]int64 {
	return map[string]int64{"commits": e.commits, "aborts": e.aborts}
}
