package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/pagestore"
)

func putUint64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
func getUint64(b []byte) uint64    { return binary.BigEndian.Uint64(b) }

// Selection is a log-stream selection algorithm, mirroring the paper's
// log-processor selection algorithms of Table 3.
type Selection int

const (
	// Cyclic rotates through the streams per writer.
	Cyclic Selection = iota
	// Random selects a uniform random stream.
	Random
	// PageMod selects stream = page number mod streams.
	PageMod
	// TxnMod selects stream = transaction number mod streams.
	TxnMod
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case Cyclic:
		return "cyclic"
	case Random:
		return "random"
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
// store. Records are encoded as they are appended, so the volatile tail is
// the bytes the next force will write, already cut into chunks.
type stream struct {
	idx        int
	store      *pagestore.Store
	firstChunk int64      // oldest stable chunk not yet truncated
	nextChunk  int64      // next stable chunk sequence number
	chunkMax   []uint64   // max LSN per stable chunk (parallel to firstChunk..)
	tail       []volChunk // appended but not yet forced, oldest first
	spare      []byte     // the last forced chunk's buffer, for the next tail
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

// append buffers one encoded record in the stream's volatile tail, whole
// records only: a record that would overflow the open chunk starts the next.
func (s *stream) append(lsn uint64, enc []byte) {
	n := len(s.tail)
	if n == 0 || len(s.tail[n-1].buf)+len(enc) > logChunkSize {
		s.tail = append(s.tail, volChunk{buf: s.spare[:0], first: lsn})
		s.spare = nil
		n++
	}
	c := &s.tail[n-1]
	c.buf = append(c.buf, enc...)
	c.max = lsn
	s.records++
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

// readStable decodes every record that reached stable storage, in append
// order, rebuilding the stream cursors (including the truncation point) for
// further appends. The records alias the chunks read.
func (s *stream) readStable() ([]Record, error) {
	s.crash()
	s.firstChunk = 0
	if meta, _, err := s.store.Read(metaID(s.idx)); err == nil && len(meta) >= 8 {
		s.firstChunk = int64(getUint64(meta))
	} else if err != nil && !errors.Is(err, pagestore.ErrNotFound) {
		return nil, err
	}
	var out []Record
	s.chunkMax = nil
	s.nextChunk = s.firstChunk
	for {
		data, _, err := s.store.Read(chunkID(s.idx, s.nextChunk))
		if errors.Is(err, pagestore.ErrNotFound) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		max := uint64(0)
		for len(data) > 0 {
			r, n, err := UnmarshalRecord(data)
			if err != nil {
				return nil, fmt.Errorf("wal: stream %d chunk %d: %w", s.idx, s.nextChunk, err)
			}
			if r.LSN > max {
				max = r.LSN
			}
			out = append(out, r)
			data = data[n:]
		}
		s.chunkMax = append(s.chunkMax, max)
		s.nextChunk++
	}
}

// trim removes every stable record with LSN >= limit — a suffix of the
// stream, since its LSNs ascend — and reports how many it removed. Whole
// chunks are deleted newest first, so a crash mid-trim never leaves a gap
// in the chunk sequence; the chunk straddling limit is rewritten last.
func (s *stream) trim(limit uint64) (int64, error) {
	var removed int64
	for s.nextChunk > s.firstChunk && s.chunkMax[len(s.chunkMax)-1] >= limit {
		id := chunkID(s.idx, s.nextChunk-1)
		data, _, err := s.store.Read(id)
		if err != nil {
			return removed, err
		}
		keep, max := 0, uint64(0)
		for rest := data; len(rest) > 0; {
			r, n, err := UnmarshalRecord(rest)
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

// selector assigns records to streams.
type selector struct {
	policy Selection
	n      int
	cursor uint64
	rng    *rand.Rand
}

func newSelector(policy Selection, n int, seed int64) *selector {
	return &selector{policy: policy, n: n, rng: rand.New(rand.NewSource(seed))}
}

// pick chooses a stream for a record of txn touching page.
func (sel *selector) pick(txn uint64, page int64) int {
	if sel.n == 1 {
		return 0
	}
	switch sel.policy {
	case Cyclic:
		sel.cursor++
		return int(sel.cursor % uint64(sel.n))
	case Random:
		return sel.rng.Intn(sel.n)
	case PageMod:
		if page < 0 {
			page = -page
		}
		return int(page % int64(sel.n))
	case TxnMod:
		return int(txn % uint64(sel.n))
	}
	return 0
}
