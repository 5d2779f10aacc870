package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/pagestore"
)

func putUint64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
func getUint64(b []byte) uint64    { return binary.BigEndian.Uint64(b) }

// Selection is a log-stream selection algorithm: the page-number and
// transaction-number ones of the paper's four in Table 3. The simulator
// (internal/recovery/logging) models all four.
type Selection int

const (
	// PageMod selects stream = page number mod streams.
	PageMod Selection = iota
	// TxnMod selects stream = transaction number mod streams.
	TxnMod
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case PageMod:
		return "page-mod"
	case TxnMod:
		return "txn-mod"
	}
	return fmt.Sprintf("selection(%d)", int(s))
}

// LogChunkSize is the stable-write granularity of a log stream (and
// therefore the page size of the log store). Records never split across
// chunks. Exported so callers supplying their own log store through
// Config.LogStore (e.g. a file-backed one) can size it correctly.
const LogChunkSize = 1 << 16

// logChunkSize is the internal alias.
const logChunkSize = LogChunkSize

// stream is one parallel log stream persisting to its own region of the log
// store. Records are encoded as they are appended, each against the open
// chunk, so the volatile tail is the bytes the next force will write,
// already cut into chunks.
type stream struct {
	idx        int
	store      *pagestore.Store
	firstChunk int64      // oldest stable chunk not yet truncated
	nextChunk  int64      // next stable chunk sequence number
	chunkMax   []uint64   // max LSN per stable chunk (parallel to firstChunk..)
	tail       []volChunk // appended but not yet forced, oldest first
	spare      []byte     // the last forced chunk's buffer, for the next tail
	scratch    []byte     // one record's encoding, until it is known to fit
	forces     int64
	records    int64
	bytes      int64 // encoded bytes that reached the log store
	truncated  int64
}

// volChunk is one chunk's worth of encoded volatile records. A stream's
// LSNs ascend, so the first and last records appended hold the chunk's
// lowest and highest LSN. A sealed chunk belongs to the group force in
// flight (see Manager.Seal): it takes no more records, and its bytes stay
// as the force copied them until Settle.
type volChunk struct {
	buf        []byte
	codec      chunkCodec // past the last record in buf
	first, max uint64
	sealed     bool
}

// head reports the LSN of the stream's oldest volatile record, 0 when it
// has none.
func (s *stream) head() uint64 {
	if len(s.tail) == 0 {
		return 0
	}
	return s.tail[0].first
}

// metaSize is a stream meta page's length: the number of the stream's first
// live chunk, then the dead horizon of the checkpoint that truncated it.
const metaSize = 16

// maxChunks bounds a stream's chunk numbers: the bit above them marks the
// stream's meta page.
const maxChunks = 1 << 39

// metaID is the stream's metadata page recording the truncation point.
func metaID(streamIdx int) pagestore.PageID {
	return pagestore.PageID(int64(streamIdx)<<40 | maxChunks)
}

// chunkID maps (stream, seq) to a log-store page id.
func chunkID(streamIdx int, seq int64) pagestore.PageID {
	return pagestore.PageID(int64(streamIdx)<<40 | seq)
}

// append encodes r onto the stream's volatile tail, whole records only: a
// record that would overflow the open chunk starts the next.
func (s *stream) append(r *Record) {
	s.records++
	if n := len(s.tail); n > 0 && !s.tail[n-1].sealed {
		c := &s.tail[n-1]
		codec := c.codec
		s.scratch = codec.encode(s.scratch[:0], r)
		if len(c.buf)+len(s.scratch) <= logChunkSize {
			c.buf = append(c.buf, s.scratch...)
			c.codec, c.max = codec, r.LSN
			return
		}
	}
	c := volChunk{first: r.LSN, max: r.LSN}
	c.buf = c.codec.encode(s.spare[:0], r)
	s.spare = nil
	s.tail = append(s.tail, c)
}

// force persists the first n chunks of the volatile tail, one store write
// per chunk, so a crash mid-force leaves a clean prefix of the stream.
// Chunks already written stay durable; the rest stay volatile.
func (s *stream) force(n int) error {
	if n == 0 {
		return nil
	}
	for i := range s.tail[:n] {
		if err := s.store.Write(chunkID(s.idx, s.nextChunk), s.tail[i].buf, 0); err != nil {
			s.drop(i)
			return err
		}
		s.durable(&s.tail[i])
	}
	s.drop(n)
	s.forces++
	return nil
}

// reach reports how many of the tail's chunks must be forced to make lsn
// durable: the whole tail, unless the chunks a group force in flight
// sealed hold lsn already. Those are forced again, under the same chunk
// numbers with the same bytes, and the open chunk is left to the next
// force.
func (s *stream) reach(lsn uint64) int {
	n := 0
	for n < len(s.tail) && s.tail[n].sealed {
		n++
	}
	if n > 0 && s.tail[n-1].max >= lsn {
		return n
	}
	return len(s.tail)
}

// durable records that chunk c, the oldest in the tail, is in the log
// store as the stream's next chunk.
func (s *stream) durable(c *volChunk) {
	s.nextChunk++
	s.chunkMax = append(s.chunkMax, c.max)
	s.bytes += int64(len(c.buf))
}

// drop removes the tail's first k chunks, which are in the log store. The
// store copied them, so the first one's buffer is kept for the next tail.
func (s *stream) drop(k int) {
	if k == 0 {
		return
	}
	s.spare = s.tail[0].buf
	s.tail = s.tail[:copy(s.tail, s.tail[k:])]
}

// settle ends a group force that sealed n chunks, numbered from first, and
// wrote the first written of them. A steal may have forced some of them
// meanwhile; the others written leave the tail now. Chunks not written are
// volatile again, as a failed force leaves them, so the next force writes
// them under the same numbers.
func (s *stream) settle(first int64, written, n int) {
	k := int(first + int64(written) - s.nextChunk)
	for i := 0; i < k; i++ {
		s.durable(&s.tail[i])
	}
	s.drop(max(k, 0))
	if k > 0 && written == n {
		s.forces++
	}
	for i := range s.tail {
		s.tail[i].sealed = false
	}
}

// truncate deletes leading stable chunks whose every record has LSN below
// point (such records can never be needed again: their pages are flushed
// and their transactions finished). The meta page records the first chunk
// kept, so a post-crash scan knows where the log starts, and the dead
// horizon point-1, so it knows which records a deleted chunk may have
// orphaned: a dead update that outlived the commit or CLR that settled it
// must not be mistaken for a loser's.
func (s *stream) truncate(point uint64) error {
	first := s.firstChunk
	for first < s.nextChunk && s.chunkMax[first-s.firstChunk] < point {
		first++
	}
	if first == s.firstChunk {
		return nil
	}
	var buf [metaSize]byte
	putUint64(buf[:], uint64(first))
	putUint64(buf[8:], point-1)
	if err := s.store.Write(metaID(s.idx), buf[:], 0); err != nil {
		return err
	}
	for seq := s.firstChunk; seq < first; seq++ {
		if err := s.store.Delete(chunkID(s.idx, seq)); err != nil {
			return err
		}
		s.truncated++
	}
	s.chunkMax = append([]uint64(nil), s.chunkMax[first-s.firstChunk:]...)
	s.firstChunk = first
	return nil
}

// crash drops the volatile tail (power loss).
func (s *stream) crash() {
	s.tail = nil
}

// reader reads one stream's stable records at restart, in order, one chunk
// at a time into one buffer, and rebuilds the stream's cursors (its chunk
// numbers and each chunk's highest LSN) for further appends as it goes.
// The head record aliases the buffer until the next call to next.
type reader struct {
	s     *stream
	buf   []byte // the chunk read last
	rest  []byte // its records not yet decoded
	codec chunkCodec
	head  Record // the stream's next record, while ok
	ok    bool
}

// open reads the stream's meta page, sets the stream to start at its first
// live chunk and returns a reader over it, at its first record, with the
// dead horizon the meta page records.
func (s *stream) open() (*reader, uint64, error) {
	s.crash()
	s.firstChunk, s.chunkMax = 0, s.chunkMax[:0]
	horizon := uint64(0)
	switch meta, _, err := s.store.Read(metaID(s.idx)); {
	case err == nil && len(meta) != metaSize:
		// The truncation point is lost: reading from chunk 0 would skip
		// every chunk since a checkpoint deleted it.
		return nil, 0, fmt.Errorf("wal: stream %d meta page holds %d bytes, not a 16-byte truncation point and horizon", s.idx, len(meta))
	case err == nil:
		// An LSN must lie above the horizon.
		first, h := getUint64(meta), getUint64(meta[8:])
		if first >= maxChunks || h == math.MaxUint64 {
			return nil, 0, fmt.Errorf("wal: stream %d meta page names chunk %d and horizon %d, past their ranges", s.idx, first, h)
		}
		s.firstChunk, horizon = int64(first), h
	case !errors.Is(err, pagestore.ErrNotFound):
		return nil, 0, err
	}
	s.nextChunk = s.firstChunk
	r := &reader{s: s, buf: make([]byte, 0, logChunkSize)}
	return r, horizon, r.next()
}

// next moves the head to the stream's next record, or clears ok after the
// last. A stream's LSNs ascend from 1; a record whose LSN does not is
// corruption. A missing chunk ends the stream, unless the chunk after it
// exists: forces write chunks in ascending order, trim deletes them newest
// first, and truncate deletes only below the first live chunk, so such a
// hole is damage, not the end of the log.
func (r *reader) next() error {
	s := r.s
	for len(r.rest) == 0 {
		data, _, err := s.store.ReadInto(r.buf, chunkID(s.idx, s.nextChunk))
		if errors.Is(err, pagestore.ErrNotFound) {
			r.ok = false
			switch hole, err := s.store.Exists(chunkID(s.idx, s.nextChunk+1)); {
			case err != nil:
				return err
			case hole:
				return fmt.Errorf("wal: stream %d chunk %d is missing, but chunk %d follows it", s.idx, s.nextChunk, s.nextChunk+1)
			}
			return nil
		}
		if err != nil {
			return err
		}
		r.buf, r.rest, r.codec = data, data, chunkCodec{}
		s.chunkMax = append(s.chunkMax, 0)
		s.nextChunk++
	}
	last := r.head.LSN
	n, err := r.codec.decode(r.rest, &r.head)
	if err != nil {
		return fmt.Errorf("wal: stream %d chunk %d: %w", s.idx, s.nextChunk-1, err)
	}
	if r.head.LSN <= last {
		return fmt.Errorf("wal: stream %d chunk %d: LSN %d is not above %d, but a stream's LSNs ascend from 1", s.idx, s.nextChunk-1, r.head.LSN, last)
	}
	r.rest = r.rest[n:]
	s.chunkMax[len(s.chunkMax)-1] = r.head.LSN
	r.ok = true
	return nil
}

// trim removes every stable record with LSN >= limit — a suffix of the
// stream, since its LSNs ascend — and reports how many it removed. Whole
// chunks are deleted newest first, so a crash mid-trim never leaves a gap
// in the chunk sequence; the chunk straddling limit is rewritten last, cut
// to its records below limit (a chunk's records are coded against earlier
// ones only, so they stand as a chunk of their own).
func (s *stream) trim(limit uint64) (int64, error) {
	var removed int64
	for s.nextChunk > s.firstChunk && s.chunkMax[len(s.chunkMax)-1] >= limit {
		id := chunkID(s.idx, s.nextChunk-1)
		data, _, err := s.store.Read(id)
		if err != nil {
			return removed, err
		}
		keep, max := 0, uint64(0)
		var codec chunkCodec
		var r Record
		for rest := data; len(rest) > 0; {
			n, err := codec.decode(rest, &r)
			if err != nil {
				return removed, fmt.Errorf("wal: stream %d chunk %d: %w", s.idx, s.nextChunk-1, err)
			}
			if r.LSN < limit {
				keep, max = keep+n, r.LSN
			} else {
				removed++
			}
			rest = rest[n:]
		}
		if keep > 0 {
			if err := s.store.Write(id, data[:keep], 0); err != nil {
				return removed, err
			}
			s.chunkMax[len(s.chunkMax)-1] = max
			break
		}
		if err := s.store.Delete(id); err != nil {
			return removed, err
		}
		s.nextChunk--
		s.chunkMax = s.chunkMax[:len(s.chunkMax)-1]
	}
	return removed, nil
}

// pick chooses which of n streams takes a record of txn touching page.
// Restart logs CLRs for page ids read from the log, which need not be
// non-negative, so the page is taken as unsigned.
func (s Selection) pick(n int, txn uint64, page int64) int {
	if s == TxnMod {
		return int(txn % uint64(n))
	}
	return int(uint64(page) % uint64(n))
}
