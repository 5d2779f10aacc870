// Package wal is a functional write-ahead-logging recovery engine with the
// paper's parallel-logging structure: log records are distributed over N
// parallel log streams (with the paper's four stream-selection algorithms),
// each stream persists independently to stable storage, and restart recovery
// merges the streams by LSN — no physical single log ever exists, exactly as
// in the paper's architecture.
//
// The engine implements steal/no-force buffer management over a
// pagestore.Store: uncommitted pages may reach disk (undo needed), committed
// pages need not (redo needed). Log records describe what changed on a page
// — the differing byte range, not the page — and restart repeats history
// from them, then rolls the losers back with logged compensation records.
package wal

import (
	"encoding/binary"
	"fmt"
)

// RecType is the type of a log record. There is no begin record: a
// transaction exists in the log from its first update on, and one that
// changed nothing never appears at all.
type RecType uint8

// Log record types.
const (
	RecUpdate RecType = iota + 1
	RecCommit
	RecAbort
	RecCheckpoint
)

// String implements fmt.Stringer.
func (t RecType) String() string {
	switch t {
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCheckpoint:
		return "CHECKPOINT"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one log record. An update record is a byte-range delta: at
// offset Off the page loses Del bytes (Old, kept so the change can be
// undone) and gains New; everything outside the range is untouched, so the
// page's new length is implied. A page with nothing in common with its
// predecessor degenerates to Off 0 and both full images — there is one
// code path. A compensation record (CLR), written while rolling an update
// back, sets CompLSN to that update's LSN and carries no Old bytes:
// recovery redoes CLRs but never undoes them. PrevLSN chains a
// transaction's records; on a checkpoint record it is the dead horizon —
// every record at or below it is dead to recovery.
type Record struct {
	LSN     uint64
	Type    RecType
	Txn     uint64
	Page    int64
	PrevLSN uint64
	CompLSN uint64 // nonzero: this record compensates update CompLSN
	Off     int    // update: where the change starts
	Del     int    // update: bytes removed at Off (len(Old) unless a CLR)
	Old     []byte // update: the removed bytes; nil on a CLR
	New     []byte // update: the bytes inserted at Off
}

// IsCLR reports whether the record is a compensation record.
func (r *Record) IsCLR() bool { return r.CompLSN != 0 }

// The tag byte holds the record type in its low three bits; each remaining
// bit says that an optional field is present. Absent fields are zero, and a
// present field is never zero, so every record has exactly one encoding.
const (
	tagTypeMask = 0x07
	tagPrev     = 1 << 3 // PrevLSN, as the distance LSN-PrevLSN
	tagComp     = 1 << 4 // CompLSN, as the distance LSN-CompLSN
	tagOff      = 1 << 5 // Off
	tagDel      = 1 << 6 // Del (followed, unless a CLR, by that many Old bytes)
	tagNew      = 1 << 7 // len(New), followed by the New bytes
)

// maxRecHeader bounds everything in an encoded record but the Old and New
// bytes: the tag, five 10-byte varints and three 3-byte ones, rounded up.
const maxRecHeader = 64

// Marshal appends the binary encoding of r to buf and returns the result:
//
//	tag · uvarint LSN · uvarint Txn · [uvarint LSN-PrevLSN] ·
//	update only: varint Page · [uvarint LSN-CompLSN] · [uvarint Off] ·
//	             [uvarint Del] · [uvarint len(New)] · [Old] · New
//
// Bracketed fields are present only when non-zero. PrevLSN and CompLSN,
// when set, must be below LSN (they always are: both name earlier records).
func (r *Record) Marshal(buf []byte) []byte {
	tag := byte(r.Type)
	if r.PrevLSN != 0 {
		tag |= tagPrev
	}
	if r.Type == RecUpdate {
		if r.CompLSN != 0 {
			tag |= tagComp
		}
		if r.Off != 0 {
			tag |= tagOff
		}
		if r.Del != 0 {
			tag |= tagDel
		}
		if len(r.New) != 0 {
			tag |= tagNew
		}
	}
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = binary.AppendUvarint(buf, r.Txn)
	if tag&tagPrev != 0 {
		buf = binary.AppendUvarint(buf, r.LSN-r.PrevLSN)
	}
	if r.Type != RecUpdate {
		return buf
	}
	buf = binary.AppendVarint(buf, r.Page)
	if tag&tagComp != 0 {
		buf = binary.AppendUvarint(buf, r.LSN-r.CompLSN)
	}
	if tag&tagOff != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Off))
	}
	if tag&tagDel != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Del))
	}
	if tag&tagNew != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(r.New)))
	}
	if !r.IsCLR() {
		buf = append(buf, r.Old...)
	}
	return append(buf, r.New...)
}

// decoder reads the fields of one record off the front of a buffer. The
// first failure sticks; the caller checks err once at the end.
type decoder struct {
	buf []byte
	n   int // bytes consumed
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: "+format, args...)
	}
}

// uvarint reads one minimally encoded uvarint. Overlong encodings (a final
// zero byte) are rejected so that a record has one encoding only.
func (d *decoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.n:])
	if !d.advance(field, n) {
		return 0
	}
	return v
}

// varint is uvarint for the signed (zig-zag) page number.
func (d *decoder) varint(field string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.n:])
	if !d.advance(field, n) {
		return 0
	}
	return v
}

// advance consumes the n bytes encoding/binary reported for a varint.
func (d *decoder) advance(field string, n int) bool {
	switch {
	case n <= 0:
		d.fail("truncated or overflowing %s", field)
	case n > 1 && d.buf[d.n+n-1] == 0:
		d.fail("overlong varint in %s", field)
	default:
		d.n += n
		return true
	}
	return false
}

// present reads a field the tag announced; such a field is never zero.
func (d *decoder) present(field string) uint64 {
	v := d.uvarint(field)
	if v == 0 {
		d.fail("%s flagged present but zero", field)
	}
	return v
}

// back resolves a distance below lsn to the LSN it names.
func (d *decoder) back(field string, lsn uint64) uint64 {
	dist := d.present(field)
	if dist >= lsn {
		d.fail("%s distance %d reaches below LSN 1 from %d", field, dist, lsn)
		return 0
	}
	return lsn - dist
}

// extent reads an offset or length; nothing in a record may reach past
// LogChunkSize, because no page whose image could not fit a chunk is ever
// logged.
func (d *decoder) extent(field string) int {
	v := d.present(field)
	if v > logChunkSize {
		d.fail("%s %d exceeds the log chunk size", field, v)
		return 0
	}
	return int(v)
}

// UnmarshalRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed. The record's Old and New alias
// buf. Anything a Marshal call could not have produced — an unknown type,
// a flag the type does not allow, an overlong varint, a range past
// LogChunkSize — is an error, never a panic.
func UnmarshalRecord(buf []byte) (Record, int, error) {
	if len(buf) == 0 {
		return Record{}, 0, fmt.Errorf("wal: empty record")
	}
	tag := buf[0]
	r := Record{Type: RecType(tag & tagTypeMask)}
	if r.Type < RecUpdate || r.Type > RecCheckpoint {
		return Record{}, 0, fmt.Errorf("wal: corrupt record type %d", tag&tagTypeMask)
	}
	if r.Type != RecUpdate && tag&^(tagTypeMask|tagPrev) != 0 {
		return Record{}, 0, fmt.Errorf("wal: %v record with update flags %#x", r.Type, tag)
	}
	d := &decoder{buf: buf, n: 1}
	r.LSN = d.uvarint("LSN")
	r.Txn = d.uvarint("Txn")
	if tag&tagPrev != 0 {
		r.PrevLSN = d.back("PrevLSN", r.LSN)
	}
	if r.Type != RecUpdate {
		if d.err != nil {
			return Record{}, 0, d.err
		}
		return r, d.n, nil
	}
	r.Page = d.varint("Page")
	if tag&tagComp != 0 {
		r.CompLSN = d.back("CompLSN", r.LSN)
	}
	if tag&tagOff != 0 {
		r.Off = d.extent("Off")
	}
	if tag&tagDel != 0 {
		r.Del = d.extent("Del")
	}
	nNew := 0
	if tag&tagNew != 0 {
		nNew = d.extent("len(New)")
	}
	if d.err != nil {
		return Record{}, 0, d.err
	}
	if r.Off+r.Del > logChunkSize || r.Off+nNew > logChunkSize {
		return Record{}, 0, fmt.Errorf("wal: range at %d (-%d +%d) reaches past the log chunk size", r.Off, r.Del, nNew)
	}
	nOld := r.Del
	if r.IsCLR() {
		nOld = 0
	}
	total := d.n + nOld + nNew
	if total > len(buf) {
		return Record{}, 0, fmt.Errorf("wal: truncated record body (%d < %d)", len(buf), total)
	}
	if nOld > 0 {
		r.Old = buf[d.n : d.n+nOld : d.n+nOld]
	}
	if nNew > 0 {
		r.New = buf[d.n+nOld : total : total]
	}
	return r, total, nil
}

// diff finds the minimal byte range in which before and after differ: the
// common prefix and (of what remains) the common suffix are cut away, and
// replacing before[off:off+del] by ins turns before into after.
func diff(before, after []byte) (off, del int, ins []byte) {
	n := len(before)
	if len(after) < n {
		n = len(after)
	}
	for off < n && before[off] == after[off] {
		off++
	}
	tail := 0
	for tail < n-off && before[len(before)-1-tail] == after[len(after)-1-tail] {
		tail++
	}
	return off, len(before) - tail - off, after[off : len(after)-tail]
}

// splice replaces page[off:off+del] by ins, in place when the length does
// not change. A range past the end of the page means the log and the page
// disagree about history: an error, never a panic.
func splice(page []byte, off, del int, ins []byte) ([]byte, error) {
	if off < 0 || del < 0 || off+del > len(page) {
		return nil, fmt.Errorf("wal: delta at %d (-%d +%d) reaches past the page's %d bytes", off, del, len(ins), len(page))
	}
	if del == len(ins) {
		copy(page[off:], ins)
		return page, nil
	}
	out := make([]byte, 0, len(page)-del+len(ins))
	out = append(out, page[:off]...)
	out = append(out, ins...)
	return append(out, page[off+del:]...), nil
}
