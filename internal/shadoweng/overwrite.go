package shadoweng

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// Reserved ranges for the overwriting engines.
const (
	scratchBase int64 = -2000000 // scratch ring blocks
	intentBase  int64 = -3000000 // intention-list slots
	intentSlots       = 64
)

func scratchID(k int64) pagestore.PageID { return pagestore.PageID(scratchBase - k) }
func intentID(slot int) pagestore.PageID { return pagestore.PageID(intentBase - int64(slot)) }

// ErrBusy is returned when every intention-list slot is held by a
// concurrent transaction. The paper's intention list is a fixed on-disk
// structure, so this is an admission limit, not a bug: the caller aborts
// and retries once a slot frees up (wrapper layers surface it as a
// retryable condition).
var ErrBusy = errors.New("shadoweng: no free intent slot")

// Variant selects the overwriting flavour.
type Variant int

const (
	// NoUndo: updates go to the scratch area first; commit is an intention
	// record; shadows are overwritten after commit. Recovery redoes
	// unfinished overwrites of committed transactions.
	NoUndo Variant = iota
	// NoRedo: originals are saved to the scratch area and pages are updated
	// in place. Recovery restores the originals of uncommitted
	// transactions.
	NoRedo
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == NoRedo {
		return "no-redo"
	}
	return "no-undo"
}

// intent is a durable intention record: the pairs a transaction intends to
// (no-undo) or already did (no-redo) apply.
type intent struct {
	Txn   uint64
	Pairs [][2]int64 // (logical page, scratch block)
}

func marshalIntent(in intent) []byte {
	buf := make([]byte, 0, 16+16*len(in.Pairs))
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(in.Txn)
	put(uint64(len(in.Pairs)))
	for _, pr := range in.Pairs {
		put(uint64(pr[0]))
		put(uint64(pr[1]))
	}
	return buf
}

func unmarshalIntent(buf []byte) (intent, error) {
	if len(buf) < 16 {
		return intent{}, fmt.Errorf("shadoweng: intent record too short")
	}
	var in intent
	in.Txn = binary.BigEndian.Uint64(buf)
	n := int(binary.BigEndian.Uint64(buf[8:]))
	if len(buf) < 16+16*n {
		return intent{}, fmt.Errorf("shadoweng: truncated intent record")
	}
	off := 16
	for i := 0; i < n; i++ {
		in.Pairs = append(in.Pairs, [2]int64{
			int64(binary.BigEndian.Uint64(buf[off:])),
			int64(binary.BigEndian.Uint64(buf[off+8:])),
		})
		off += 16
	}
	return in, nil
}

// OverwriteEngine implements the overwriting shadow architectures. Pages
// live at their home locations (block id = logical page id), preserving
// physical sequentiality — the property the paper builds these variants for.
type OverwriteEngine struct {
	store   *pagestore.Store
	variant Variant

	nextScratch int64

	// Per-transaction state. No-undo: buffered new values. No-redo: saved
	// originals' scratch blocks and assigned intent slot.
	att map[uint64]*owTxn

	// journal, when attached, records recovery decisions in order (nil is
	// a no-op sink; survives Crash).
	journal *obs.Journal
}

type owTxn struct {
	writes map[int64][]byte // no-undo: pending new values
	saved  map[int64]int64  // no-redo: logical -> scratch block of original
	order  []int64          // touch order for deterministic records
	slot   int              // no-redo: its intent slot
}

// NewOverwrite creates an overwriting engine of the given variant on store.
func NewOverwrite(store *pagestore.Store, variant Variant) *OverwriteEngine {
	return &OverwriteEngine{
		store:   store,
		variant: variant,
		att:     make(map[uint64]*owTxn),
	}
}

// Name identifies the engine.
func (e *OverwriteEngine) Name() string {
	return fmt.Sprintf("shadow(overwrite-%s)", e.variant)
}

// SetJournal attaches (or with nil detaches) the structured recovery
// journal. Subsequent Recover calls emit their decisions to it.
func (e *OverwriteEngine) SetJournal(j *obs.Journal) { e.journal = j }

// Load populates page p before transactions run.
func (e *OverwriteEngine) Load(p int64, data []byte) error {
	if err := e.store.Write(pagestore.PageID(p), data, 0); err != nil {
		return err
	}
	e.journal.EmitPage(p, obs.JournalRecord{Event: "load"})
	return nil
}

// Begin starts transaction tid.
func (e *OverwriteEngine) Begin(tid uint64) error {
	if _, ok := e.att[tid]; ok {
		return fmt.Errorf("shadoweng: transaction %d already active", tid)
	}
	t := &owTxn{writes: make(map[int64][]byte), saved: make(map[int64]int64), slot: -1}
	e.att[tid] = t
	return nil
}

// Read returns page p as seen by tid.
func (e *OverwriteEngine) Read(tid uint64, p int64) ([]byte, error) {
	if t, ok := e.att[tid]; ok && e.variant == NoUndo {
		if d, ok := t.writes[p]; ok {
			return append([]byte(nil), d...), nil
		}
	}
	return e.readHome(p)
}

func (e *OverwriteEngine) readHome(p int64) ([]byte, error) {
	data, _, err := e.store.Read(pagestore.PageID(p))
	if errors.Is(err, pagestore.ErrNotFound) {
		return nil, nil
	}
	return data, err
}

// Write updates page p for tid. No-undo buffers the new value until commit;
// no-redo saves the original to the scratch area, records the intention,
// and updates the page in place.
func (e *OverwriteEngine) Write(tid uint64, p int64, data []byte) error {
	t, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	if e.variant == NoUndo {
		if _, seen := t.writes[p]; !seen {
			t.order = append(t.order, p)
		}
		t.writes[p] = append([]byte(nil), data...)
		return nil
	}
	// No-redo: first touch saves the shadow and re-publishes the intent
	// record before the in-place write (write-ahead of the undo data).
	if _, saved := t.saved[p]; !saved {
		orig, err := e.readHome(p)
		if err != nil {
			return err
		}
		blk := e.nextScratch
		e.nextScratch++
		if err := e.store.Write(scratchID(blk), orig, 0); err != nil {
			return err
		}
		t.saved[p] = blk
		t.order = append(t.order, p)
		if t.slot < 0 {
			slot, err := e.freeSlot()
			if err != nil {
				return err
			}
			t.slot = slot
		}
		if err := e.writeIntent(t.slot, tid, t.pairsNoRedo()); err != nil {
			return err
		}
	}
	return e.store.Write(pagestore.PageID(p), data, 1)
}

func (t *owTxn) pairsNoRedo() [][2]int64 {
	pairs := make([][2]int64, 0, len(t.order))
	for _, p := range t.order {
		pairs = append(pairs, [2]int64{p, t.saved[p]})
	}
	return pairs
}

func (e *OverwriteEngine) freeSlot() (int, error) {
	used := map[int]bool{}
	for _, t := range e.att {
		if t.slot >= 0 {
			used[t.slot] = true
		}
	}
	for s := 0; s < intentSlots; s++ {
		if used[s] {
			continue
		}
		// The slot probe is a stable-storage read: it can hit a crashed
		// store (and is itself a sweep crash point), so the error must
		// surface instead of silently treating the slot as free.
		taken, err := e.store.Exists(intentID(s))
		if err != nil {
			return 0, err
		}
		if !taken {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w (%d concurrent transactions)", ErrBusy, intentSlots)
}

func (e *OverwriteEngine) writeIntent(slot int, tid uint64, pairs [][2]int64) error {
	buf := marshalIntent(intent{Txn: tid, Pairs: pairs})
	if len(buf) > e.store.PageSize() {
		return fmt.Errorf("shadoweng: write set too large for one intent page (%d pairs)", len(pairs))
	}
	if err := e.store.Write(intentID(slot), buf, 0); err != nil {
		return err
	}
	// Publishing an intention record is the durability decision both
	// variants hinge on, so it is the journaled event of the forward path.
	e.journal.Emit(obs.JournalRecord{Event: "intent", Engine: e.Name(), Txn: tid, N: int64(len(pairs))})
	return nil
}

// Commit finishes tid. No-undo: updated pages are written to the scratch
// ring, the intention record makes the commit durable, then the shadows are
// overwritten in place and the record cleared. No-redo: the in-place writes
// already happened; deleting the intent record is the commit point.
func (e *OverwriteEngine) Commit(tid uint64) error {
	t, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	if e.variant == NoRedo {
		if t.slot >= 0 {
			if err := e.store.Delete(intentID(t.slot)); err != nil {
				return fmt.Errorf("shadoweng: commit %d in doubt: %w", tid, err)
			}
		}
		delete(e.att, tid)
		e.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid})
		return nil
	}
	// No-undo.
	pairs := make([][2]int64, 0, len(t.order))
	for _, p := range t.order {
		blk := e.nextScratch
		e.nextScratch++
		if err := e.store.Write(scratchID(blk), t.writes[p], 0); err != nil {
			return err
		}
		pairs = append(pairs, [2]int64{p, blk})
	}
	slot, err := e.freeSlot()
	if err != nil {
		return err
	}
	if err := e.writeIntent(slot, tid, pairs); err != nil {
		return fmt.Errorf("shadoweng: commit %d in doubt: %w", tid, err)
	}
	// Commit point passed: overwrite the shadows.
	for _, pr := range pairs {
		if err := e.store.Write(pagestore.PageID(pr[0]), t.writes[pr[0]], 1); err != nil {
			return fmt.Errorf("shadoweng: commit %d: overwrite interrupted (recovery will finish): %w", tid, err)
		}
	}
	if err := e.store.Delete(intentID(slot)); err != nil {
		return err
	}
	delete(e.att, tid)
	e.journal.Emit(obs.JournalRecord{Event: "commit", Txn: tid})
	return nil
}

// Abort rolls tid back. No-undo: drop the buffer. No-redo: restore the
// saved originals and clear the intent record.
func (e *OverwriteEngine) Abort(tid uint64) error {
	t, ok := e.att[tid]
	if !ok {
		return fmt.Errorf("shadoweng: transaction %d not active", tid)
	}
	if e.variant == NoRedo {
		for i := len(t.order) - 1; i >= 0; i-- {
			p := t.order[i]
			orig, _, err := e.store.Read(scratchID(t.saved[p]))
			if err != nil {
				return err
			}
			if err := e.store.Write(pagestore.PageID(p), orig, 0); err != nil {
				return err
			}
		}
		if t.slot >= 0 {
			if err := e.store.Delete(intentID(t.slot)); err != nil {
				return err
			}
		}
	}
	delete(e.att, tid)
	e.journal.Emit(obs.JournalRecord{Event: "abort", Txn: tid, N: int64(len(t.order))})
	return nil
}

// Crash drops all volatile state.
func (e *OverwriteEngine) Crash() {
	e.att = nil
}

// Recover completes or rolls back whatever the intention records describe.
// No-undo: redo the overwrites of committed transactions. No-redo: restore
// the originals of uncommitted transactions.
func (e *OverwriteEngine) Recover() error {
	if err := e.store.Reset(); err != nil {
		return err
	}
	var applied int64 // pages redone or restored
	for s := 0; s < intentSlots; s++ {
		buf, _, err := e.store.Read(intentID(s))
		if errors.Is(err, pagestore.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		in, err := unmarshalIntent(buf)
		if err != nil {
			return err
		}
		action := "redo"
		if e.variant == NoRedo {
			action = "restore"
		}
		e.journal.Emit(obs.JournalRecord{Event: "replay", Engine: e.Name(), Txn: in.Txn, N: int64(len(in.Pairs)), Note: action})
		for i := range in.Pairs {
			// No-redo restores in reverse save order; no-undo redoes in
			// order (both idempotent with full images).
			pr := in.Pairs[i]
			if e.variant == NoRedo {
				pr = in.Pairs[len(in.Pairs)-1-i]
			}
			data, _, err := e.store.Read(scratchID(pr[1]))
			if err != nil {
				return fmt.Errorf("shadoweng: scratch block %d lost: %w", pr[1], err)
			}
			if err := e.store.Write(pagestore.PageID(pr[0]), data, 0); err != nil {
				return err
			}
			applied++
		}
		if err := e.store.Delete(intentID(s)); err != nil {
			return err
		}
	}
	e.journal.Emit(obs.JournalRecord{Event: "scan", Engine: e.Name(), N: applied})
	e.att = make(map[uint64]*owTxn)
	return nil
}

// ReadCommitted reads the committed contents of page p; call when no
// transaction is active (e.g. after Recover).
func (e *OverwriteEngine) ReadCommitted(p int64) ([]byte, error) {
	return e.readHome(p)
}
