package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

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
// lowest and highest LSN.
type volChunk struct {
	buf        []byte
	codec      chunkCodec // past the last record in buf
	first, max uint64
}

// head reports the LSN of the stream's oldest volatile record, 0 when it
// has none.
func (s *stream) head() uint64 {
	if len(s.tail) == 0 {
		return 0
	}
	return s.tail[0].first
}

// metaID is the stream's metadata page recording the truncation point.
func metaID(streamIdx int) pagestore.PageID {
	return pagestore.PageID(int64(streamIdx)<<40 | 1<<39)
}

// chunkID maps (stream, seq) to a log-store page id.
func chunkID(streamIdx int, seq int64) pagestore.PageID {
	return pagestore.PageID(int64(streamIdx)<<40 | seq)
}

// append encodes r onto the stream's volatile tail, whole records only: a
// record that would overflow the open chunk starts the next.
func (s *stream) append(r *Record) {
	s.records++
	if n := len(s.tail); n > 0 {
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

// force persists the whole volatile tail, one store write per chunk, so a
// crash mid-force leaves a clean prefix of the stream.
func (s *stream) force() error {
	if len(s.tail) == 0 {
		return nil
	}
	for i, c := range s.tail {
		if err := s.store.Write(chunkID(s.idx, s.nextChunk), c.buf, 0); err != nil {
			// Chunks already written stay durable; keep the rest volatile.
			s.tail = s.tail[i:]
			return err
		}
		s.nextChunk++
		s.chunkMax = append(s.chunkMax, c.max)
		s.bytes += int64(len(c.buf))
	}
	s.spare = s.tail[0].buf // the store copied it; the next tail reuses it
	s.tail = s.tail[:0]
	s.forces++
	return nil
}

// truncate deletes leading stable chunks whose every record has LSN below
// point (such records can never be needed again: their pages are flushed
// and their transactions finished). The truncation point is persisted so a
// post-crash scan knows where the log starts.
func (s *stream) truncate(point uint64) error {
	first := s.firstChunk
	for first < s.nextChunk && s.chunkMax[first-s.firstChunk] < point {
		first++
	}
	if first == s.firstChunk {
		return nil
	}
	var buf [8]byte
	putUint64(buf[:], uint64(first))
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

// restartRec is what restart reads of one stable record, decoded once: 72
// bytes where a Record takes 120. The Old and New bytes stay where they
// were read, as one slice of the chunk.
type restartRec struct {
	lsn   uint64
	txn   uint64
	comp  uint64 // an update's CompLSN; a checkpoint's dead horizon
	page  int64
	off   int32
	del   int32
	typ   RecType
	delta []byte // Old‖New; a CLR has no Old
}

func (r *restartRec) isCLR() bool { return r.typ == RecUpdate && r.comp != 0 }

func (r *restartRec) old() []byte {
	if r.isCLR() {
		return nil
	}
	return r.delta[:r.del]
}

func (r *restartRec) ins() []byte { return r.delta[len(r.old()):] }

// restartBlock is the number of records in one block of a restartLog.
const restartBlock = 1024

// restartLog holds every stream's stable records for restart, stream after
// stream, each in the order it was written. Records live in fixed-size
// blocks, so a long log is never copied to make room for more of it.
type restartLog struct {
	blocks [][]restartRec
	n      int
	lo, hi []int // stream i's records are [lo[i], hi[i]); after livePrefix, its live ones
	ckpts  []restartCkpt
	dead   uint64 // the highest dead horizon of a checkpoint; after livePrefix, of a live one
	// Record counts by kind, to size restart's tables.
	commits, clrs int
}

// restartCkpt is a checkpoint record's LSN and its dead horizon.
type restartCkpt struct{ lsn, horizon uint64 }

func (l *restartLog) at(i int) *restartRec {
	return &l.blocks[i/restartBlock][i%restartBlock]
}

// add appends r, whose Old and New are the last bytes of enc.
func (l *restartLog) add(r *Record, enc []byte) {
	if l.n%restartBlock == 0 {
		l.blocks = append(l.blocks, make([]restartRec, restartBlock))
	}
	comp := r.CompLSN
	switch {
	case r.Type == RecCommit:
		l.commits++
	case r.IsCLR():
		l.clrs++
	case r.Type == RecCheckpoint:
		comp = r.PrevLSN
		l.ckpts = append(l.ckpts, restartCkpt{r.LSN, comp})
		if comp > l.dead {
			l.dead = comp
		}
	}
	n := len(enc)
	*l.at(l.n) = restartRec{
		lsn: r.LSN, txn: r.Txn, comp: comp, page: r.Page,
		off: int32(r.Off), del: int32(r.Del), typ: r.Type,
		delta: enc[n-len(r.Old)-len(r.New) : n : n],
	}
	l.n++
}

// merge returns a cursor over the streams' records in LSN order.
func (l *restartLog) merge() *cursor {
	return &cursor{log: l, heads: append([]int(nil), l.lo...)}
}

// cursor walks a restartLog in LSN order. Each stream's LSNs ascend, so
// this is a k-way merge: the next record is the least of the streams'
// heads. One stream is read straight through.
type cursor struct {
	log   *restartLog
	heads []int // per stream, the index of its next record
}

// next returns the record with the least LSN not yet returned, nil after
// the last.
func (c *cursor) next() *restartRec {
	var best *restartRec
	bi := 0
	for i, h := range c.heads {
		if h < c.log.hi[i] {
			if r := c.log.at(h); best == nil || r.lsn < best.lsn {
				best, bi = r, i
			}
		}
	}
	if best != nil {
		c.heads[bi]++
	}
	return best
}

// end walks the log in LSN order from above the dead horizon and returns
// the LSN after the last one before the first gap, and whether there is a
// gap (records beyond it).
func (l *restartLog) end() (next uint64, gap bool, err error) {
	next = l.dead + 1
	c := l.merge()
	for r := c.next(); r != nil; r = c.next() {
		if r.lsn <= l.dead {
			continue
		}
		if r.lsn < next {
			return 0, false, fmt.Errorf("wal: LSN %d is in the log twice", r.lsn)
		}
		if r.lsn > next {
			return next, true, nil
		}
		next++
	}
	return next, false, nil
}

// readStable decodes every record that reached stable storage onto the end
// of log, in append order, rebuilding the stream cursors (including the
// truncation point) for further appends. A stream's LSNs ascend; a record
// whose LSN does not is corruption. The records alias the chunks read.
func (s *stream) readStable(log *restartLog) error {
	s.crash()
	s.firstChunk = 0
	switch meta, _, err := s.store.Read(metaID(s.idx)); {
	case err == nil && len(meta) != 8:
		// The truncation point is lost: reading from chunk 0 would skip
		// every chunk since a checkpoint deleted it.
		return fmt.Errorf("wal: stream %d meta page holds %d bytes, not an 8-byte truncation point", s.idx, len(meta))
	case err == nil:
		s.firstChunk = int64(getUint64(meta))
	case !errors.Is(err, pagestore.ErrNotFound):
		return err
	}
	s.chunkMax = nil
	s.nextChunk = s.firstChunk
	log.lo = append(log.lo, log.n)
	last := uint64(0)
	for {
		data, _, err := s.store.Read(chunkID(s.idx, s.nextChunk))
		if errors.Is(err, pagestore.ErrNotFound) {
			log.hi = append(log.hi, log.n)
			return nil
		}
		if err != nil {
			return err
		}
		max := uint64(0)
		var codec chunkCodec
		for len(data) > 0 {
			r, n, err := codec.decode(data)
			if err != nil {
				return fmt.Errorf("wal: stream %d chunk %d: %w", s.idx, s.nextChunk, err)
			}
			if r.LSN <= last {
				return fmt.Errorf("wal: stream %d chunk %d: LSN %d is not above %d, but a stream's LSNs ascend from 1", s.idx, s.nextChunk, r.LSN, last)
			}
			last, max = r.LSN, r.LSN
			log.add(&r, data[:n])
			data = data[n:]
		}
		s.chunkMax = append(s.chunkMax, max)
		s.nextChunk++
	}
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
		for rest := data; len(rest) > 0; {
			r, n, err := codec.decode(rest)
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
