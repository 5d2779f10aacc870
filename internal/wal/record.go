// Package wal is a functional write-ahead-logging recovery engine with the
// paper's parallel-logging structure: log records are distributed over N
// parallel log streams (by page number or by transaction number), each
// stream persists independently to stable storage, and restart recovery
// merges the streams by LSN — no physical single log ever exists, exactly as
// in the paper's architecture.
//
// The engine implements steal/no-force buffer management over a
// pagestore.Store: uncommitted pages may reach disk (undo needed), committed
// pages need not (redo needed). An update record carries only its
// after-image — the differing byte range, not the page — and restart
// repeats history from it. The before-image stays in memory; it enters the
// log, as an undo record, only when a page holding the update is about to
// reach disk before its transaction ends. Restart rolls the losers back
// with logged compensation records built from those images.
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
	RecUndo
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
	case RecUndo:
		return "UNDO"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one log record. An update record is a byte-range delta: at
// offset Off the page loses Del bytes and gains New; everything outside the
// range is untouched, so the page's new length is implied. A page with
// nothing in common with its predecessor degenerates to Off 0 and the full
// image — there is one code path. The bytes the update removed are not in
// it: an undo record carries them (Old), naming the update by CompLSN, and
// only when the page may reach disk before the update's transaction ends.
// A compensation record (CLR), written while rolling an update back, is an
// update record that sets CompLSN to that update's LSN: recovery redoes
// CLRs but never undoes them. A record names its transaction and nothing
// else of it: restart keeps each open transaction's updates as it reads
// them in LSN order, so it never walks a chain back.
type Record struct {
	LSN     uint64
	Type    RecType
	Txn     uint64
	Page    int64  // update: the page; undo: not logged (it picks the stream)
	CompLSN uint64 // CLR: the update it compensates; undo: the update whose Old it holds
	Off     int    // update: where the change starts
	Del     int    // update: bytes removed at Off
	Old     []byte // undo: the bytes update CompLSN removed
	New     []byte // update: the bytes inserted at Off
}

// IsCLR reports whether the record is a compensation record.
func (r *Record) IsCLR() bool { return r.Type == RecUpdate && r.CompLSN != 0 }

// The tag byte holds the record type in its low three bits; each of the top
// four bits says that an optional update field is present. Absent fields are
// zero, and a present field is never zero. Types 5–7 are an update, commit
// or abort that follows the record before it in its chunk (see chunkCodec):
// the tag then stands for LSN and Txn too, so no flag bit is spent on it.
// Type 4 is an undo record, which has no optional fields. Type 0 and bit 3
// are never written.
const (
	tagTypeMask = 0x07
	tagFollows  = 4      // added to RecUpdate, RecCommit or RecAbort: the record follows
	tagUnused   = 1 << 3 // never set
	tagComp     = 1 << 4 // CompLSN, as the distance LSN-CompLSN
	tagOff      = 1 << 5 // Off
	tagShrink   = 1 << 6 // Del-len(New), zig-zag: how far the page shrinks
	tagNew      = 1 << 7 // len(New), followed by the New bytes
)

// maxRecHeader bounds everything in an encoded record but its one image
// (New, or an undo record's Old): the tag, four 10-byte varints and three
// 3-byte ones, rounded up.
const maxRecHeader = 64

// chunkCodec codes the records of one log chunk — what one force's
// Store.Write puts — in order, each against the record before it. A record
// follows the one before it when it is an update, commit or abort, its LSN
// is one above that record's and its Txn is the same: a transaction's
// records appended back to back, as a transfer's are. A following record
// writes neither of those two fields. Nothing follows an undo record, and a
// chunk's first record never follows, so each chunk decodes on its own. The
// zero value starts a chunk.
//
// The encoder uses the short form whenever the rule holds and the decoder
// accepts it nowhere else, so a chunk has exactly one encoding.
type chunkCodec struct {
	lsn, txn uint64 // the record the next one may follow; lsn 0: none
}

// follows reports whether r follows the record before it.
func (c *chunkCodec) follows(r *Record) bool {
	return c.lsn != 0 && r.Type <= RecAbort && r.LSN == c.lsn+1 && r.Txn == c.txn
}

// step moves the codec past r.
func (c *chunkCodec) step(r *Record) {
	if r.Type > RecAbort {
		*c = chunkCodec{}
		return
	}
	c.lsn, c.txn = r.LSN, r.Txn
}

// encode appends the encoding of r, the chunk's next record, to buf and
// returns the result:
//
//	tag · [uvarint LSN · uvarint Txn] ·
//	update only: varint Page · [uvarint LSN-CompLSN] · [uvarint Off] ·
//	             [varint Del-len(New)] · [uvarint len(New)] · New
//	undo only:   uvarint LSN-CompLSN · uvarint len(Old) · Old
//
// The first brackets are absent when r follows; the others hold fields
// present only when non-zero. An undo record's fields are all present: it
// names an earlier update, and one that removed nothing needs none.
// CompLSN, when set, must be below LSN (it always is: it names an earlier
// record).
func (c *chunkCodec) encode(buf []byte, r *Record) []byte {
	tag := byte(r.Type)
	follows := c.follows(r)
	if follows {
		tag += tagFollows
	}
	c.step(r)
	shrink := r.Del - len(r.New)
	if r.Type == RecUpdate {
		if r.CompLSN != 0 {
			tag |= tagComp
		}
		if r.Off != 0 {
			tag |= tagOff
		}
		if shrink != 0 {
			tag |= tagShrink
		}
		if len(r.New) != 0 {
			tag |= tagNew
		}
	}
	buf = append(buf, tag)
	if !follows {
		buf = binary.AppendUvarint(buf, r.LSN)
		buf = binary.AppendUvarint(buf, r.Txn)
	}
	switch r.Type {
	case RecUndo:
		buf = binary.AppendUvarint(buf, r.LSN-r.CompLSN)
		buf = binary.AppendUvarint(buf, uint64(len(r.Old)))
		return append(buf, r.Old...)
	case RecUpdate:
	default:
		return buf
	}
	buf = binary.AppendVarint(buf, r.Page)
	if tag&tagComp != 0 {
		buf = binary.AppendUvarint(buf, r.LSN-r.CompLSN)
	}
	if tag&tagOff != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Off))
	}
	if tag&tagShrink != 0 {
		buf = binary.AppendVarint(buf, int64(shrink))
	}
	if tag&tagNew != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(r.New)))
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

// shrink reads the present, signed difference Del-len(New), bounded as an
// extent is.
func (d *decoder) shrink() int {
	v := d.varint("Del-len(New)")
	switch {
	case d.err != nil:
	case v == 0:
		d.fail("Del-len(New) flagged present but zero")
	case v > logChunkSize || v < -logChunkSize:
		d.fail("Del-len(New) %d exceeds the log chunk size", v)
	default:
		return int(v)
	}
	return 0
}

// image reads n bytes of a record's image, which alias the buffer.
func (d *decoder) image(n int) []byte {
	if d.err != nil || n == 0 {
		return nil
	}
	end := d.n + n
	if end > len(d.buf) {
		d.fail("truncated record body (%d < %d)", len(d.buf), end)
		return nil
	}
	b := d.buf[d.n:end:end]
	d.n = end
	return b
}

// decode decodes the chunk's next record from the front of buf into r,
// returning the number of bytes consumed. The record's Old and New alias
// buf. Anything encode could not have produced — a flag the type does not
// allow, an overlong varint, a range past LogChunkSize, a following record
// where none may follow, a whole one where it must — is an error, never a
// panic; r is then undefined.
func (c *chunkCodec) decode(buf []byte, r *Record) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("wal: empty record")
	}
	tag := buf[0]
	typ := tag & tagTypeMask
	follows := typ > tagFollows
	if follows {
		typ -= tagFollows
	}
	*r = Record{Type: RecType(typ)}
	switch {
	case typ == 0:
		return 0, fmt.Errorf("wal: record of type 0")
	case tag&tagUnused != 0:
		return 0, fmt.Errorf("wal: %v record with unused flag %#x", r.Type, tagUnused)
	case r.Type != RecUpdate && tag&^tagTypeMask != 0:
		return 0, fmt.Errorf("wal: %v record with update flags %#x", r.Type, tag)
	}
	d := &decoder{buf: buf, n: 1}
	if follows {
		switch {
		case c.lsn == 0:
			return 0, fmt.Errorf("wal: following %v record with no record before it to follow", r.Type)
		case c.lsn+1 == 0:
			return 0, fmt.Errorf("wal: following %v record overflows the LSN", r.Type)
		}
		r.LSN, r.Txn = c.lsn+1, c.txn
	} else {
		r.LSN = d.uvarint("LSN")
		r.Txn = d.uvarint("Txn")
		if d.err == nil && c.follows(r) {
			return 0, fmt.Errorf("wal: %v record at LSN %d coded whole, but it follows the record before it", r.Type, r.LSN)
		}
	}
	switch r.Type {
	case RecUndo:
		r.CompLSN = d.back("CompLSN", r.LSN)
		r.Old = d.image(d.extent("len(Old)"))
	case RecUpdate:
		r.Page = d.varint("Page")
		if tag&tagComp != 0 {
			r.CompLSN = d.back("CompLSN", r.LSN)
		}
		if tag&tagOff != 0 {
			r.Off = d.extent("Off")
		}
		shrink, nNew := 0, 0
		if tag&tagShrink != 0 {
			shrink = d.shrink()
		}
		if tag&tagNew != 0 {
			nNew = d.extent("len(New)")
		}
		r.Del = nNew + shrink
		if d.err == nil && (r.Del < 0 || r.Off+r.Del > logChunkSize || r.Off+nNew > logChunkSize) {
			return 0, fmt.Errorf("wal: range at %d (-%d +%d) reaches past the log chunk size", r.Off, r.Del, nNew)
		}
		r.New = d.image(nNew)
	}
	if d.err != nil {
		return 0, d.err
	}
	c.step(r)
	return d.n, nil
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
