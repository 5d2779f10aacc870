package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/pagestore"
)

// FuzzUnmarshalRecord hammers the log-chunk decoder with arbitrary bytes:
// it must never panic, every chunk that decodes must re-encode to the same
// bytes (a chunk has one encoding), nothing a record describes may reach
// past LogChunkSize, and applying a record to a page it does not fit is an
// error, not a panic.
func FuzzUnmarshalRecord(f *testing.F) {
	for _, r := range []Record{
		{LSN: 7, Type: RecUpdate, Txn: 3, Page: 9, Off: 1, Del: 3, New: []byte("new")},
		{LSN: 8, Type: RecUndo, Txn: 3, CompLSN: 7, Old: []byte("old")},
		{LSN: 8, Type: RecUpdate, Txn: 3, Page: 9, Off: 2, Del: 5, New: []byte("ab")},
		{LSN: 9, Type: RecUpdate, Txn: 3, Page: -9, CompLSN: 7, Off: 1, Del: 3, New: []byte("old")},
		{LSN: 1 << 40, Type: RecUpdate, Txn: 1 << 33, Page: 1 << 20, New: bytes.Repeat([]byte{7}, 300)},
		{LSN: 10, Type: RecCommit, Txn: 3},
		{LSN: 11, Type: RecAbort, Txn: 4},
	} {
		f.Add(encodeChunk(r))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{byte(RecCommit), 0x89, 0x00, 2})                                       // overlong LSN
	f.Add([]byte{byte(RecUpdate) | tagComp, 9, 2, 8, 0x80, 0x00})                       // overlong distance
	f.Add([]byte{byte(RecCommit) | tagUnused, 9, 2})                                    // the unused flag
	f.Add([]byte{0, 9, 2})                                                              // type 0
	f.Add(append([]byte{byte(RecCommit)}, bytes.Repeat([]byte{0x80}, 12)...))           // varint that never ends
	f.Add([]byte{byte(RecUpdate) | tagNew, 9, 2, 8, 0xff, 0xff, 0x7f, 'x'})             // len(New) past the chunk
	f.Add([]byte{byte(RecUpdate) | tagShrink, 9, 2, 8, 0xff, 0xff, 0xff, 0xff, 0x0f})   // Del past the chunk
	f.Add([]byte{byte(RecUpdate) | tagComp | tagOff | tagShrink, 9, 2, 8, 1, 0x7f, 50}) // offset+len past a small page
	f.Add([]byte{byte(RecUpdate) | tagShrink | tagNew, 9, 2, 8, 0, 1, 'x'})             // Del equal to len(New), present
	f.Add([]byte{byte(RecUndo) | tagNew, 9, 2, 1, 1, 'a'})                              // an undo record with a flag
	bal := func(v byte) []byte { return []byte{v} }
	f.Add(encodeChunk( // a transfer: the second update and the commit follow
		Record{LSN: 20, Type: RecUpdate, Txn: 5, Page: 1, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 21, Type: RecUpdate, Txn: 5, Page: 2, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 22, Type: RecCommit, Txn: 5}))
	f.Add(encodeChunk( // a transfer whose first page is stolen before it commits
		Record{LSN: 20, Type: RecUpdate, Txn: 5, Page: 1, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 21, Type: RecUndo, Txn: 5, CompLSN: 20, Old: bal(1)},
		Record{LSN: 22, Type: RecUpdate, Txn: 5, Page: 2, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 23, Type: RecCommit, Txn: 5}))
	f.Add(encodeChunk( // two transactions interleaved: nothing follows
		Record{LSN: 20, Type: RecUpdate, Txn: 5, Page: 1, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 21, Type: RecUpdate, Txn: 6, Page: 3, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 22, Type: RecUpdate, Txn: 5, Page: 2, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 23, Type: RecUpdate, Txn: 6, Page: 4, Off: 7, Del: 1, New: bal(2)},
		Record{LSN: 24, Type: RecCommit, Txn: 5}))
	f.Add(encodeChunk( // an abort with CLRs, newest update first
		Record{LSN: 30, Type: RecUpdate, Txn: 7, Page: 1, Del: 2, New: []byte("xyz")},
		Record{LSN: 31, Type: RecUpdate, Txn: 7, Page: 2, Off: 1, New: []byte("q")},
		Record{LSN: 32, Type: RecUpdate, Txn: 7, Page: 2, CompLSN: 31, Off: 1, Del: 1},
		Record{LSN: 33, Type: RecUpdate, Txn: 7, Page: 1, CompLSN: 30, Del: 3, New: []byte("ab")},
		Record{LSN: 34, Type: RecAbort, Txn: 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c chunkCodec
		var recs []Record
		for rest := data; len(rest) > 0; {
			var r Record
			n, err := c.decode(rest, &r)
			if err != nil {
				return
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("consumed %d of %d", n, len(rest))
			}
			if r.Off+r.Del > LogChunkSize || r.Off+len(r.New) > LogChunkSize || len(r.Old)+len(r.New) > n {
				t.Fatalf("record reaches past the chunk or its own bytes: %+v", r)
			}
			recs, rest = append(recs, r), rest[n:]
		}
		if again := encodeChunk(recs...); !bytes.Equal(again, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, again)
		}
		for _, r := range recs {
			if r.Type != RecUpdate {
				continue
			}
			page := bytes.Repeat([]byte{'p'}, 64)
			out, err := splice(page, r.Off, r.Del, r.New)
			if (err == nil) != (r.Off+r.Del <= 64) {
				t.Fatalf("splice of (%d,-%d,+%d) into 64 bytes: %v", r.Off, r.Del, len(r.New), err)
			}
			if err == nil && len(out) != 64-r.Del+len(r.New) {
				t.Fatalf("splice left %d bytes, want %d", len(out), 64-r.Del+len(r.New))
			}
		}
	})
}

// fuzzManager is a fresh manager over the pages every FuzzRecover run
// starts from.
func fuzzManager(streams int) *Manager {
	m, _ := newTestManager(Config{Streams: streams, PoolPages: 3})
	for p := int64(0); p < 4; p++ {
		if err := m.Load(p, []byte(fmt.Sprintf("page-%d", p))); err != nil {
			panic(err)
		}
	}
	return m
}

// stableStreams returns each stream's stable records as one chunk: what a
// log of the same records written by fewer forces would hold. The records
// are coded afresh, since a chunk codes each against the one before it.
func stableStreams(t testing.TB, m *Manager) [3][]byte {
	var out [3][]byte
	for i, s := range m.streams {
		var recs []Record
		for seq := s.firstChunk; seq < s.nextChunk; seq++ {
			data, _, err := m.LogStore().Read(chunkID(i, seq))
			if err != nil {
				t.Fatal(err)
			}
			chunk, err := decodeChunk(data)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, chunk...)
		}
		out[i] = encodeChunk(recs...)
	}
	return out
}

// addLog adds to f's corpus the log run writes on a fresh manager over
// streams streams: each stream's stable records as one chunk and, when
// withMeta is set, each stream's meta page, or 16 zero bytes, which read
// the same as none.
func addLog(f *testing.F, streams int, run func(m *Manager) error, withMeta bool) {
	m := fuzzManager(streams)
	if err := run(m); err != nil {
		f.Fatal(err)
	}
	c := stableStreams(f, m)
	var meta []byte
	for i := 0; withMeta && i < streams; i++ {
		page, _, err := m.LogStore().Read(metaID(i))
		if errors.Is(err, pagestore.ErrNotFound) {
			page = make([]byte, metaSize)
		} else if err != nil {
			f.Fatal(err)
		}
		meta = append(meta, page...)
	}
	f.Add(uint8(streams-1), c[0], c[1], c[2], meta)
}

// FuzzRecover writes arbitrary bytes as the only stable chunk of one to
// three streams and restarts: Recover must return an error or succeed,
// never panic, and when it succeeds a second crash and restart must succeed
// too and leave every page as the first left it. meta holds an optional
// 16-byte meta page per stream, stream 0's first; a stream's chunk goes
// where its meta page says the stream starts, when that is a chunk number.
// The seeds are real logs: a transfer, an abort with CLRs, a checkpoint, a
// gap between streams, three streams a checkpoint truncated, losers whose
// pages were stolen after their undo records, a transaction id that
// recurs after a restart, and sparse page and transaction ids.
func FuzzRecover(f *testing.F) {
	for _, seed := range []struct {
		streams int
		run     func(m *Manager) error
	}{
		{1, func(m *Manager) error { // a transfer
			return errors.Join(m.Begin(1), m.Write(1, 0, []byte("page-0-debit")),
				m.Write(1, 1, []byte("page-1-credit")), m.Commit(1))
		}},
		{3, func(m *Manager) error { // an abort with CLRs, and a loser
			return errors.Join(m.Begin(1), m.Write(1, 2, []byte("p2")), m.Write(1, 3, []byte("page-3-grown")),
				m.Abort(1), m.Begin(2), m.Write(2, 0, []byte("loser")),
				m.Begin(3), m.Write(3, 1, []byte("x")), m.Commit(3))
		}},
		{3, func(m *Manager) error { // a checkpoint with a transaction open across it
			return errors.Join(m.Begin(1), m.Write(1, 0, []byte("one")), m.Commit(1),
				m.Begin(2), m.Write(2, 1, []byte("two")), m.Checkpoint(),
				m.Write(2, 2, []byte("two-again")), m.Commit(2))
		}},
		{3, func(m *Manager) error { // a gap: the commit's last force is lost
			if err := errors.Join(m.Begin(1), m.Write(1, 0, []byte("a")), m.Write(1, 1, []byte("b")),
				m.Write(1, 0, []byte("page-0-c"))); err != nil {
				return err
			}
			m.LogStore().SetFaultHook(pagestore.CrashAtMutation(2))
			m.Commit(1) // fails: the power is cut
			m.LogStore().SetFaultHook(nil)
			return m.LogStore().Reset()
		}},
	} {
		addLog(f, seed.streams, seed.run, false)
	}
	f.Add(uint8(0), []byte{}, []byte{}, []byte{}, []byte{})
	// A commit beyond a gap: the trim removes it, so it must not settle
	// the update below it at the first restart either.
	f.Add(uint8(1),
		encodeChunk(Record{LSN: 1, Type: RecUpdate, Txn: 1, Page: 24, Del: 6, New: []byte("000")}),
		encodeChunk(Record{LSN: 48, Type: RecCommit, Txn: 1}), []byte{}, []byte{})
	f.Add(uint8(2), []byte{byte(RecCommit), 5, 1}, []byte{byte(RecCommit) | tagUnused, 6, 2}, []byte{0, 7, 2}, []byte{})
	// A loser on a negative page, undone on three streams.
	f.Add(uint8(2), encodeChunk(Record{LSN: 1, Type: RecUpdate, Txn: 1, Page: -1, New: []byte("x")}), []byte{}, []byte{}, []byte{})
	// A loser whose update reached disk: its undo record rolls it back; a
	// second undo record names an update no transaction has open.
	f.Add(uint8(0), encodeChunk(
		Record{LSN: 1, Type: RecUpdate, Txn: 1, Page: 2, Off: 5, Del: 1, New: []byte("X")},
		Record{LSN: 2, Type: RecUndo, Txn: 1, CompLSN: 1, Old: []byte("2")},
		Record{LSN: 3, Type: RecUndo, Txn: 4, CompLSN: 1, Old: []byte("2")}), []byte{}, []byte{}, []byte{})
	// A loser whose pages were stolen before the crash, each after its
	// undo records, on one stream and on three.
	for _, streams := range []int{1, 3} {
		addLog(f, streams, func(m *Manager) error {
			err := errors.Join(m.Begin(1), m.Write(1, 0, []byte("p0")), m.Write(1, 1, []byte("page-1-grown")),
				m.Write(1, 2, []byte("two")), m.Write(1, 3, []byte("3")), m.Write(1, 0, []byte("p0-again")),
				m.Begin(3), m.Write(3, 5, []byte("five")), m.Commit(3))
			if err == nil && m.Stats()["stealsUncommitted"] == 0 {
				err = errors.New("no page was stolen uncommitted")
			}
			return err
		}, false)
	}
	// Three streams a checkpoint truncated, with a loser open across it.
	addLog(f, 3, func(m *Manager) error {
		err := errors.Join(m.Begin(1), m.Write(1, 0, []byte("one")), m.Write(1, 1, []byte("one")), m.Commit(1),
			m.Begin(2), m.Write(2, 2, []byte("two")), m.Begin(3), m.Write(3, 1, []byte("three")), m.Commit(3),
			m.Checkpoint(), m.Begin(4), m.Write(4, 0, []byte("four")), m.Commit(4))
		if err == nil && m.Stats()["truncatedChunks"] == 0 {
			err = errors.New("the checkpoint truncated nothing")
		}
		return err
	}, true)
	// T1 commits before a restart; after it a new T1 stays open while T2
	// changes the first T1's page and commits.
	addLog(f, 1, func(m *Manager) error {
		if err := errors.Join(m.Begin(1), m.Write(1, 0, []byte("one")), m.Commit(1)); err != nil {
			return err
		}
		m.Crash()
		return errors.Join(m.Recover(), m.Begin(1), m.Write(1, 1, []byte("page-1-again")),
			m.Begin(2), m.Write(2, 0, []byte("two")), m.Commit(2))
	}, false)
	// Sparse ids on three streams: pages on either side of a directory
	// block boundary near 1<<61, transaction ids on either side of one (255
	// and 256), and a loser with the largest id there is, whose page is
	// stolen before the crash.
	addLog(f, 3, func(m *Manager) error {
		const p, loser = 1 << 61, math.MaxUint64
		err := errors.Join(m.Begin(255), m.Write(255, p+255, []byte("edge")), m.Begin(256), m.Write(256, p+256, []byte("next-block")),
			m.Begin(loser), m.Write(loser, p-1, []byte("loser")), m.Write(255, 0, []byte("page-0-edge")), m.Commit(255), m.Commit(256))
		if err == nil && m.Stats()["stealsUncommitted"] == 0 {
			err = errors.New("no page was stolen uncommitted")
		}
		return err
	}, false)
	f.Fuzz(func(t *testing.T, n uint8, c0, c1, c2, meta []byte) {
		streams := 1 + int(n%3)
		m := fuzzManager(streams)
		for i, c := range [][]byte{c0, c1, c2}[:streams] {
			if len(c) > LogChunkSize {
				c = c[:LogChunkSize]
			}
			seq := int64(0)
			if len(meta) >= metaSize*(i+1) {
				page := meta[metaSize*i : metaSize*(i+1)]
				if err := m.LogStore().Write(metaID(i), page, 0); err != nil {
					t.Fatal(err)
				}
				if first := getUint64(page); first < maxChunks {
					seq = int64(first)
				}
			}
			if err := m.LogStore().Write(chunkID(i, seq), c, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Crash()
		if m.Recover() != nil {
			return
		}
		pages := m.data.Keys()
		want := make([][]byte, len(pages))
		for i, p := range pages {
			v, err := m.ReadCommitted(int64(p))
			if err != nil {
				t.Fatalf("page %d after restart: %v", p, err)
			}
			want[i] = v
		}
		m.Crash()
		if err := m.Recover(); err != nil {
			t.Fatalf("second restart: %v", err)
		}
		for i, p := range pages {
			got, err := m.ReadCommitted(int64(p))
			if err != nil {
				t.Fatalf("page %d after the second restart: %v", p, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("page %d = %q after the second restart, %q after the first", p, got, want[i])
			}
		}
	})
}
