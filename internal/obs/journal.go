package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// The recovery journal is the forensic counterpart of the metrics registry:
// where metrics aggregate *how much* recovery work happened, the journal
// records *which decisions* recovery made and in what order — which
// transactions were classified winners or losers, which log records were
// redone or undone, what a checkpoint flushed and truncated, what a merge
// folded. The pure recovery kernels (internal/wal, internal/shadoweng,
// internal/diffeng) emit into it directly, so like everything else in this
// package it is strictly deterministic and single-threaded: no sync, no
// wall-clock, records numbered in emission order. Concurrent readers must
// quiesce the emitting kernel first (internal/engine.Guard does).

// JournalRecord is one recovery decision. Field order is the JSONL column
// order; zero-valued optional fields are omitted so records stay compact.
type JournalRecord struct {
	// Seq is the record's emission index, assigned by Journal.Emit.
	Seq int64 `json:"seq"`
	// Event classifies the decision: "scan", "winner", "loser", "redo",
	// "undo", "checkpoint", "truncate", "merge", "replay", "root", "gc", ...
	// (see docs/OBSERVABILITY.md for the full schema).
	Event string `json:"event"`
	// Engine names the emitting kernel.
	Engine string `json:"engine,omitempty"`
	Txn    uint64 `json:"txn,omitempty"`
	// Page is a pointer so that page 0 — a legitimate page id — still
	// serializes, while events without a page omit the field entirely.
	// Kernels set it through EmitPage.
	Page *int64 `json:"page,omitempty"`
	LSN  uint64 `json:"lsn,omitempty"`
	// N carries the event's magnitude (records scanned, chunks truncated,
	// blocks reclaimed, ...).
	N int64 `json:"n,omitempty"`
	// Note carries free-form detail ("clr", "add", "del", ...).
	Note string `json:"note,omitempty"`
}

// Journal collects recovery decisions in emission order. The zero value is
// ready to use; a nil *Journal is a valid no-op sink, so kernels hold one
// unconditionally and emit without nil checks.
type Journal struct {
	recs []JournalRecord
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Emit appends one record, assigning its sequence number. Emitting to a nil
// journal is a no-op — the nil-safety that lets pure kernels carry a sink
// without configuration.
func (j *Journal) Emit(r JournalRecord) {
	if j == nil {
		return
	}
	r.Seq = int64(len(j.recs))
	j.recs = append(j.recs, r)
}

// EmitPage is Emit for an event about page: it sets the record's Page. The
// page id reaches the heap only when a journal is attached, so kernels emit
// on their hot paths for free when nobody listens.
func (j *Journal) EmitPage(page int64, r JournalRecord) {
	if j != nil {
		j.emitPage(page, r)
	}
}

// emitPage is EmitPage's attached half. It is kept out of line so that the
// page's move to the heap stays here, and never runs at a call site with
// no journal.
//
//go:noinline
func (j *Journal) emitPage(page int64, r JournalRecord) {
	r.Page = &page
	j.Emit(r)
}

// Len reports the number of records emitted (0 for a nil journal).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return len(j.recs)
}

// Records returns the emitted records in order. The slice is shared; treat
// it as read-only.
func (j *Journal) Records() []JournalRecord {
	if j == nil {
		return nil
	}
	return j.recs
}

// Reset drops every record (no-op on nil).
func (j *Journal) Reset() {
	if j != nil {
		j.recs = j.recs[:0]
	}
}

// WriteJSONL renders the journal as one JSON object per line, in emission
// order. encoding/json emits struct fields in declaration order, so the
// output is byte-deterministic — two same-seed recoveries journal
// identically, which is what lets crash sweeps pin journals as goldens.
func (j *Journal) WriteJSONL(w io.Writer) error {
	for _, r := range j.Records() {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("obs: journal record %d: %w", r.Seq, err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
