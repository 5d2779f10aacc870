// Package filestore implements the pagestore.Backend contract over real
// files: a page file (data.db) plus an append-only on-disk write-ahead log
// (wal.log) with explicit fsync discipline. It converts the repo's
// recovery audits from claims about memory into claims about bytes on disk,
// while keeping the exact crash semantics the audits rely on:
//
//   - A mutation is acknowledged (Put/Del returns nil) only after its log
//     record is on the platter — append, then fsync, then ack.
//   - Power-off loses everything the device had not synced: the unsynced
//     bytes of the log turn to zeros, except at most a torn prefix of the
//     record that was in flight.
//   - The log is extended ahead of its tail, growBytes at a time, by
//     truncating the file up (a hole, never written zeros), so an append
//     writes inside the file's size and its fsync has no size change to
//     journal. The log ends at the first all-zero header.
//   - Power-on reloads the page file, then replays the log sequentially.
//     A whole record ends in its op byte, which is never zero, after a
//     crc32 that covers it. A crash tears at most a strict prefix of the
//     last record, followed by zeros: a record that does not end in a
//     non-zero byte, with nothing but zeros after it, is torn, and is
//     zeroed. A whole record whose crc32 or op is wrong, a whole header
//     with an impossible length, and non-zero bytes past the end of the
//     log are damage: power-on refuses with ErrCorrupt rather than drop
//     the fsynced records behind them. Replay skips records already folded
//     into the page file (each record carries a monotone sequence number;
//     data.db records the fold horizon), so a crash between fold and log
//     truncation cannot replay stale images over newer ones. Power-on
//     reads each file once, whole, into one buffer, and the mirror's
//     pages alias those buffers: it keeps at most one wal.log (the fold
//     threshold plus one record and one extension) and one data.db image.
//
// The mirror is a pagestore.Mem, the memory store itself, embedded: Get,
// Has, Len and Keys are its, and an acknowledged Put copies into the
// page's own buffer as the memory store does. A page that aliases a file
// buffer has cap == len, so that in-place copy writes only the page's own
// bytes, which no other page and no earlier Read hold.
//
// When the log grows past foldBytes, the store folds: it writes the
// full page image to data.db.tmp, fsyncs, renames over data.db (atomic on
// POSIX), fsyncs the directory, and only then truncates the log to
// nothing. The fold runs BEFORE the triggering record is appended, so a
// crash mid-fold can only lose unacknowledged work.
//
// File layout (big-endian, crc32-IEEE):
//
//	wal.log   sequence of records, then zeros to the file's end:
//	          seq u64 · id u64 · version u64 · len u32 · data ·
//	          crc u32 (over the record's other bytes, op included) ·
//	          op u8 ('P'=put 'D'=del)
//	          len's top bit is the parity of its other bits, and each op
//	          has two bits set, so no single flipped bit makes a whole
//	          record look torn.
//	data.db   magic "PAGEDB1\n" · foldSeq u64 · pageSize u32 · count u32 ·
//	          then per page (ascending id):
//	          id u64 · version u64 · len u32 · data · crc u32
//
// Fault injection: the backend implements pagestore.FileInjectable. An
// installed pagestore.FileHook is consulted before every file operation
// (append, sync, fold page-write, log truncate; not the log's extension,
// which writes no byte) and can cut power cleanly, tear the record's
// bytes, or lose the sync — see pagestore/filefault.go.
// The backend is not safe for concurrent use by itself; the owning
// pagestore.Store serializes all access.
package filestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/pagestore"
)

const (
	walName  = "wal.log"
	dataName = "data.db"
	tmpName  = "data.db.tmp"

	opPut = 'P'
	opDel = 'D'

	// walHdrLen is seq(8) + id(8) + version(8) + len(4).
	walHdrLen = 28
	// walRecLen is a record's framing: the header, then crc(4) and op(1)
	// after the data.
	walRecLen = walHdrLen + 5

	// lenParity is len's top bit: the parity of the length below it.
	lenParity = 1 << 31

	// foldBytes is the log size that triggers a fold into the page file.
	foldBytes = 1 << 20
	// growBytes is the step the log file is extended by ahead of its tail.
	growBytes = 1 << 18
)

// zeros is compared against to find the end of the log.
var zeros [4096]byte

var dataMagic = [8]byte{'P', 'A', 'G', 'E', 'D', 'B', '1', '\n'}

// ErrCorrupt is wrapped by unrecoverable on-disk corruption: a damaged
// page file, a damaged whole record in the log, or non-zero bytes past its
// end. Torn log tails are recovered from, not errors.
var ErrCorrupt = errors.New("filestore: corrupt")

// Backend is the file-backed pagestore.Backend. Obtain one through Open,
// which wraps it in a pagestore.Store.
type Backend struct {
	// Mem mirrors the durable-or-acknowledged state for reads; power-on
	// rebuilds it from the files, so after every crash it reflects exactly
	// the bytes that survived.
	pagestore.Mem

	dir      string
	pageSize int
	fold     int64

	wal *os.File

	nextSeq uint64
	foldSeq uint64

	walSize   int64 // bytes appended (acknowledged into the OS file)
	walSynced int64 // bytes known to be on the platter
	walAlloc  int64 // wal.log's size: walSize, then the zeros ahead of it
	tornStart int64 // offset of a torn in-flight record, -1 when none
	tornLen   int64

	hook    pagestore.FileHook
	fileOps int64

	closed       bool
	folds        int64
	tornDetected int64
}

// Open opens (creating if needed) a file-backed store rooted at dir.
func Open(dir string, pageSize int) (*pagestore.Store, error) {
	return open(dir, pageSize, foldBytes)
}

// open is Open with the fold threshold as a parameter, so tests can force
// folds with a few writes.
func open(dir string, pageSize int, fold int64) (*pagestore.Store, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("filestore: page size must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		dir:       dir,
		pageSize:  pageSize,
		fold:      fold,
		wal:       wal,
		tornStart: -1,
	}
	if err := b.PowerOn(); err != nil {
		wal.Close()
		return nil, err
	}
	return pagestore.NewOn(pageSize, b), nil
}

// Dir reports the directory holding the store's files.
func (b *Backend) Dir() string { return b.dir }

// Folds reports how many times the log has been folded into the page file.
func (b *Backend) Folds() int64 { return b.folds }

// TornDetected reports how many power-ons zeroed a torn log tail.
func (b *Backend) TornDetected() int64 { return b.tornDetected }

// LogBytes reports the bytes of records wal.log holds: those appended
// since the last fold. The file is larger, by the zeros ahead of them.
func (b *Backend) LogBytes() int64 { return b.walSize }

// SetFileHook implements pagestore.FileInjectable.
func (b *Backend) SetFileHook(h pagestore.FileHook) { b.hook = h }

// FileOps implements pagestore.FileInjectable.
func (b *Backend) FileOps() int64 { return b.fileOps }

// fire presents one file operation to the hook, degrading faults that do
// not apply to this operation kind (a sync has no bytes to tear; only a
// sync can be lost or lyingly skipped).
func (b *Backend) fire(op pagestore.FileOp, name string) pagestore.FileFault {
	b.fileOps++
	if b.hook == nil {
		return pagestore.FileOK
	}
	f := b.hook(op, name, b.fileOps)
	switch op {
	case pagestore.FileAppend, pagestore.FilePageWrite:
		if f == pagestore.FileLostSync {
			f = pagestore.FileCrash
		}
		if f == pagestore.FileSkipSync {
			f = pagestore.FileOK
		}
	case pagestore.FileSync:
		if f == pagestore.FileTorn {
			f = pagestore.FileCrash
		}
	case pagestore.FileTruncate:
		if f == pagestore.FileTorn || f == pagestore.FileLostSync {
			f = pagestore.FileCrash
		}
		if f == pagestore.FileSkipSync {
			f = pagestore.FileOK
		}
	}
	return f
}

// PowerOff applies the medium's loss semantics: unsynced log bytes vanish
// from the device cache, reading as zeros again, and a torn in-flight
// record survives only when it sits exactly at the synced frontier
// (otherwise it was behind lost cached bytes and is gone too). The file
// keeps its size. Idempotent.
func (b *Backend) PowerOff() {
	if b.closed {
		return
	}
	persist := b.walSynced
	if b.tornStart >= 0 && b.tornStart == b.walSynced {
		persist += b.tornLen
	}
	b.zeroFrom(persist)
	b.wal.Sync()
	b.walSize, b.walSynced = persist, persist
	b.tornStart, b.tornLen = -1, 0
}

// PowerOn rebuilds the in-memory mirror from the files: remove any
// incomplete fold, load the page file, replay the log (skipping records at
// or below the fold horizon), and truncate away a torn tail. Interior
// damage — a complete record that fails its checksum or whose header is
// impossible — returns ErrCorrupt.
//
// Each file is read once, whole, into one buffer, and the mirror's pages
// alias it: the table is cleared and refilled, not rebuilt, and no page is
// copied. Each page's slice ends where its bytes do (cap == len), so a
// later in-place Put writes only that page's bytes; a buffer lives as long
// as one of its pages does.
func (b *Backend) PowerOn() error {
	if b.closed {
		return pagestore.ErrClosed
	}
	os.Remove(filepath.Join(b.dir, tmpName))

	b.Pages.Clear()
	foldSeq, err := loadDataFile(filepath.Join(b.dir, dataName), b.pageSize, &b.Pages)
	if err != nil {
		return err
	}
	b.foldSeq = foldSeq

	raw, err := readWhole(b.wal)
	if err != nil {
		return fmt.Errorf("filestore: reading %s: %w", walName, err)
	}
	off := int64(0)
	maxSeq := foldSeq
	torn := false
	// The log ends at an all-zero header. A record that does not end in
	// its op byte is torn (appendRec tears a strict prefix of one), and
	// must be followed by zeros only.
	for off < int64(len(raw)) {
		rec := raw[off:]
		var seq, id, version uint64
		var lenField uint32
		if len(rec) >= walHdrLen {
			seq = binary.BigEndian.Uint64(rec[:8])
			id = binary.BigEndian.Uint64(rec[8:16])
			version = binary.BigEndian.Uint64(rec[16:24])
			lenField = binary.BigEndian.Uint32(rec[24:28])
		}
		if seq|id|version|uint64(lenField) == 0 && zero(rec[:min(walHdrLen, len(rec))]) {
			break
		}
		n, ok := recLen(lenField, b.pageSize)
		ok = ok && len(rec) >= walHdrLen
		if !ok || int64(len(rec)) < walRecLen+n || rec[walRecLen+n-1] == 0 {
			cut := int64(walHdrLen) // where the zeros after a tear start, at the latest
			if ok {
				cut = walRecLen + n
			}
			if !zero(rec[min(cut, int64(len(rec))):]) {
				return fmt.Errorf("%w: %s: bad record at offset %d", ErrCorrupt, walName, off)
			}
			torn = true
			break
		}
		end := walHdrLen + n
		body := rec[walHdrLen:end:end]
		op := rec[end+4]
		if op != opPut && op != opDel {
			return fmt.Errorf("%w: %s: bad record op at offset %d", ErrCorrupt, walName, off)
		}
		if recCRC(rec[:end], op) != binary.BigEndian.Uint32(rec[end:end+4]) {
			return fmt.Errorf("%w: %s: record checksum mismatch at offset %d", ErrCorrupt, walName, off)
		}
		if seq > foldSeq {
			if op == opPut {
				*b.Pages.Put(pagestore.PageID(id)) = pagestore.Page{Data: body, Version: version}
			} else {
				b.Pages.Delete(pagestore.PageID(id))
			}
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		off += walRecLen + n
	}
	b.walSize, b.walSynced, b.walAlloc = off, off, int64(len(raw))
	if torn {
		b.tornDetected++
		if err := b.zeroFrom(off); err != nil {
			return fmt.Errorf("filestore: zeroing torn tail of %s: %w", walName, err)
		}
		if err := b.wal.Sync(); err != nil {
			return err
		}
	} else if !zero(raw[off:]) {
		return fmt.Errorf("%w: %s: non-zero bytes past the log's end at offset %d", ErrCorrupt, walName, off)
	}
	b.nextSeq = maxSeq + 1
	b.tornStart, b.tornLen = -1, 0
	return nil
}

// recLen reads the data length from a header's len field v, and reports
// whether it is a page's, its parity bit right.
func recLen(v uint32, pageSize int) (int64, bool) {
	n := v &^ lenParity
	return int64(n), n <= uint32(pageSize) && v == withParity(n)
}

// withParity sets len's top bit to the parity of n.
func withParity(n uint32) uint32 {
	return n | uint32(bits.OnesCount32(n)&1)<<31
}

// recCRC is the crc32 of head, a record's bytes before its crc, followed
// by its op byte: one more table step, which allocates nothing.
func recCRC(head []byte, op byte) uint32 {
	c := ^crc32.ChecksumIEEE(head)
	return ^(crc32.IEEETable[byte(c)^op] ^ c>>8)
}

// zero reports whether b holds only zero bytes.
func zero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeros))
		if !bytes.Equal(b[:n], zeros[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// zeroFrom turns the log file's bytes from off on into zeros, keeping its
// size: it truncates the file down and up again, which leaves a hole.
func (b *Backend) zeroFrom(off int64) error {
	if err := b.wal.Truncate(off); err != nil {
		return err
	}
	return b.wal.Truncate(max(off, b.walAlloc))
}

// Close flushes and closes the files. Idempotent.
func (b *Backend) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if err := b.wal.Sync(); err != nil {
		b.wal.Close()
		return err
	}
	return b.wal.Close()
}

func (b *Backend) Put(id pagestore.PageID, data []byte, version uint64) error {
	return b.appendRec(opPut, id, data, version)
}

func (b *Backend) Del(id pagestore.PageID) error {
	return b.appendRec(opDel, id, nil, 0)
}

// appendRec is the single mutation path: fold if due, append the record,
// fsync, acknowledge, then update the mirror. The fold runs before the
// append so a mid-fold crash only ever loses the not-yet-acknowledged
// record.
func (b *Backend) appendRec(op byte, id pagestore.PageID, data []byte, version uint64) error {
	if b.closed {
		return pagestore.ErrClosed
	}
	if b.walSize >= b.fold {
		if err := b.foldNow(); err != nil {
			return err
		}
	}
	rec := encodeWalRec(b.nextSeq, op, id, version, data)
	if need := b.walSize + int64(len(rec)); need > b.walAlloc {
		// Extend the file past the record, so that the appends up to
		// the next extension leave its size alone.
		alloc := (need + growBytes - 1) / growBytes * growBytes
		if err := b.wal.Truncate(alloc); err != nil {
			return fmt.Errorf("filestore: extending %s: %w", walName, err)
		}
		b.walAlloc = alloc
	}
	switch b.fire(pagestore.FileAppend, walName) {
	case pagestore.FileCrash:
		b.PowerOff()
		return pagestore.ErrCrashed
	case pagestore.FileTorn:
		// A strict prefix of the record reaches the platter before the
		// lights go out.
		pfx := rec[:len(rec)/2]
		b.wal.WriteAt(pfx, b.walSize)
		b.tornStart, b.tornLen = b.walSize, int64(len(pfx))
		b.PowerOff()
		return pagestore.ErrCrashed
	}
	if _, err := b.wal.WriteAt(rec, b.walSize); err != nil {
		return fmt.Errorf("filestore: appending to %s: %w", walName, err)
	}
	b.walSize += int64(len(rec))
	switch b.fire(pagestore.FileSync, walName) {
	case pagestore.FileCrash, pagestore.FileLostSync:
		b.PowerOff()
		return pagestore.ErrCrashed
	case pagestore.FileSkipSync:
		// The lying device: acknowledge without syncing. walSynced stays
		// behind, so the next power-off silently drops this acknowledged
		// record — the contract violation negative tests arm on purpose.
	default:
		if err := b.wal.Sync(); err != nil {
			return fmt.Errorf("filestore: fsync %s: %w", walName, err)
		}
		b.walSynced = b.walSize
	}
	b.nextSeq++
	if op == opPut {
		return b.Mem.Put(id, data, version)
	}
	return b.Mem.Del(id)
}

// foldNow checkpoints the mirror into data.db (write temp, fsync, rename,
// fsync dir) and then truncates the log. data.db carries the sequence
// number of the last folded record, so replay after any crash in this
// window skips exactly the records the fold absorbed.
func (b *Backend) foldNow() error {
	lastSeq := b.nextSeq - 1
	img := encodeDataFile(&b.Pages, lastSeq, b.pageSize)
	tmpPath := filepath.Join(b.dir, tmpName)
	switch b.fire(pagestore.FilePageWrite, tmpName) {
	case pagestore.FileCrash:
		b.PowerOff()
		return pagestore.ErrCrashed
	case pagestore.FileTorn:
		os.WriteFile(tmpPath, img[:len(img)/2], 0o644)
		b.PowerOff()
		return pagestore.ErrCrashed
	}
	if err := writeFileSync(tmpPath, img); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(b.dir, dataName)); err != nil {
		return err
	}
	if err := syncDir(b.dir); err != nil {
		return err
	}
	b.foldSeq = lastSeq
	switch b.fire(pagestore.FileTruncate, walName) {
	case pagestore.FileCrash:
		// The fold is durable; only the (now-redundant) log survives. The
		// fold horizon in data.db keeps replay from regressing pages.
		b.PowerOff()
		return pagestore.ErrCrashed
	}
	if err := b.wal.Truncate(0); err != nil {
		return fmt.Errorf("filestore: truncating %s: %w", walName, err)
	}
	if err := b.wal.Sync(); err != nil {
		return err
	}
	b.walSize, b.walSynced, b.walAlloc = 0, 0, 0
	b.folds++
	return nil
}

// readWhole reads all of f with one ReadAt into a buffer sized by Stat.
func readWhole(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, fi.Size())
	n, err := f.ReadAt(raw, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return raw[:n], nil
}

func encodeWalRec(seq uint64, op byte, id pagestore.PageID, version uint64, data []byte) []byte {
	rec := make([]byte, 0, walRecLen+len(data))
	rec = binary.BigEndian.AppendUint64(rec, seq)
	rec = binary.BigEndian.AppendUint64(rec, uint64(id))
	rec = binary.BigEndian.AppendUint64(rec, version)
	rec = binary.BigEndian.AppendUint32(rec, withParity(uint32(len(data))))
	rec = append(rec, data...)
	rec = binary.BigEndian.AppendUint32(rec, recCRC(rec, op))
	return append(rec, op)
}
