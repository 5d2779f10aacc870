package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/pagestore"
)

// FuzzUnmarshalRecord hammers the log-record decoder with arbitrary bytes:
// it must never panic, every successfully decoded record must re-encode to
// the bytes it consumed (a record has one encoding), nothing it describes
// may reach past LogChunkSize, and applying it to a page it does not fit is
// an error, not a panic.
func FuzzUnmarshalRecord(f *testing.F) {
	for _, r := range []Record{
		{LSN: 7, Type: RecUpdate, Txn: 3, Page: 9, PrevLSN: 5, Off: 1, Del: 3, Old: []byte("old"), New: []byte("new")},
		{LSN: 9, Type: RecUpdate, Txn: 3, Page: -9, PrevLSN: 7, CompLSN: 7, Off: 1, Del: 3, New: []byte("old")},
		{LSN: 1 << 40, Type: RecUpdate, Txn: 1 << 33, Page: 1 << 20, New: bytes.Repeat([]byte{7}, 300)},
		{LSN: 10, Type: RecCommit, Txn: 3, PrevLSN: 9},
		{LSN: 11, Type: RecAbort, Txn: 4},
		{LSN: 12, Type: RecCheckpoint, PrevLSN: 11},
	} {
		f.Add(r.Marshal(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{byte(RecCommit), 0x89, 0x00, 2})                                    // overlong LSN
	f.Add([]byte{byte(RecCommit) | tagPrev, 9, 2, 0x80, 0x00})                       // overlong distance
	f.Add(append([]byte{byte(RecCommit)}, bytes.Repeat([]byte{0x80}, 12)...))        // varint that never ends
	f.Add([]byte{byte(RecUpdate) | tagNew, 9, 2, 8, 0xff, 0xff, 0x7f, 'x'})          // len(New) past the chunk
	f.Add([]byte{byte(RecUpdate) | tagDel, 9, 2, 8, 0xff, 0xff, 0xff, 0xff, 0x0f})   // Del past the chunk
	f.Add([]byte{byte(RecUpdate) | tagComp | tagOff | tagDel, 9, 2, 8, 1, 0x7f, 50}) // offset+len past a small page
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := UnmarshalRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if again := r.Marshal(nil); !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data[:n], again)
		}
		if r.Off+r.Del > LogChunkSize || r.Off+len(r.New) > LogChunkSize || len(r.Old)+len(r.New) > n {
			t.Fatalf("record reaches past the chunk or its own bytes: %+v", r)
		}
		if r.Type != RecUpdate {
			return
		}
		page := bytes.Repeat([]byte{'p'}, 64)
		out, err := splice(page, r.Off, r.Del, r.New)
		if (err == nil) != (r.Off+r.Del <= 64) {
			t.Fatalf("splice of (%d,-%d,+%d) into 64 bytes: %v", r.Off, r.Del, len(r.New), err)
		}
		if err == nil && len(out) != 64-r.Del+len(r.New) {
			t.Fatalf("splice left %d bytes, want %d", len(out), 64-r.Del+len(r.New))
		}
	})
}

// fuzzManager is a fresh manager over the pages every FuzzRecover run
// starts from.
func fuzzManager(streams int) *Manager {
	m, _ := newTestManager(Config{Streams: streams, Selection: Cyclic, PoolPages: 3})
	for p := int64(0); p < 4; p++ {
		if err := m.Load(p, []byte(fmt.Sprintf("page-%d", p))); err != nil {
			panic(err)
		}
	}
	return m
}

// stableStreams returns each stream's stable records as one chunk: what a
// log of the same records written by fewer forces would hold.
func stableStreams(t testing.TB, m *Manager) [3][]byte {
	var out [3][]byte
	for i, s := range m.streams {
		for seq := s.firstChunk; seq < s.nextChunk; seq++ {
			data, _, err := m.LogStore().Read(chunkID(i, seq))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], data...)
		}
	}
	return out
}

// FuzzRecover writes arbitrary bytes as the only stable chunk of one to
// three streams and restarts: Recover must return an error or succeed,
// never panic, and when it succeeds a second crash and restart must succeed
// too and leave every page as the first left it. The seeds are real logs: a
// transfer, an abort with CLRs, a checkpoint, and a gap between streams.
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
		m := fuzzManager(seed.streams)
		if err := seed.run(m); err != nil {
			f.Fatal(err)
		}
		c := stableStreams(f, m)
		f.Add(uint8(seed.streams-1), c[0], c[1], c[2])
	}
	f.Add(uint8(0), []byte{}, []byte{}, []byte{})
	// A checkpoint beyond a gap: the trim removes it, so its horizon must
	// not hide the update below it from the first restart either.
	f.Add(uint8(1),
		(&Record{LSN: 1, Type: RecUpdate, Txn: 1, Page: 24, Del: 6, Old: []byte("000000"), New: []byte("000")}).Marshal(nil),
		(&Record{LSN: 48, Type: RecCheckpoint, PrevLSN: 16}).Marshal(nil), []byte{})
	f.Add(uint8(2), []byte{byte(RecCommit), 5, 1}, []byte{byte(RecCheckpoint) | tagPrev, 6, 0, 2}, []byte{0xff})
	f.Fuzz(func(t *testing.T, n uint8, c0, c1, c2 []byte) {
		streams := 1 + int(n%3)
		m := fuzzManager(streams)
		for i, c := range [][]byte{c0, c1, c2}[:streams] {
			if len(c) > LogChunkSize {
				c = c[:LogChunkSize]
			}
			if err := m.LogStore().Write(chunkID(i, 0), c, 0); err != nil {
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
