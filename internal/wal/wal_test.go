package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

func newTestManager(cfg Config) (*Manager, *pagestore.Store) {
	store := pagestore.New(4096)
	return NewManager(store, cfg), store
}

func page(s string) []byte { return []byte(s) }

// events counts j's records of the named event.
func events(j *obs.Journal, event string) int {
	n := 0
	for _, r := range j.Records() {
		if r.Event == event {
			n++
		}
	}
	return n
}

// encodeChunk encodes recs as one log chunk.
func encodeChunk(recs ...Record) []byte {
	var c chunkCodec
	var buf []byte
	for i := range recs {
		buf = c.encode(buf, &recs[i])
	}
	return buf
}

// decodeChunk decodes every record of one log chunk.
func decodeChunk(buf []byte) ([]Record, error) {
	var c chunkCodec
	var recs []Record
	for len(buf) > 0 {
		var r Record
		n, err := c.decode(buf, &r)
		if err != nil {
			return nil, err
		}
		recs, buf = append(recs, r), buf[n:]
	}
	return recs, nil
}

func TestRecordMarshalRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 42, Type: RecUpdate, Txn: 7, Page: 99, Off: 5, Del: 3, New: []byte("newer")},
		{LSN: 43, Type: RecUpdate, Txn: 7, Page: -1, CompLSN: 12, Off: 5, Del: 5, New: []byte("old")},
		{LSN: 44, Type: RecCommit, Txn: 7},
		{LSN: 45, Type: RecAbort, Txn: 8},
		{LSN: 46, Type: RecAbort, Txn: 8},
		{LSN: 48, Type: RecCommit, Txn: 8},
		{LSN: 1, Type: RecUpdate, Txn: 1, New: []byte("first")},
		{LSN: 49, Type: RecUpdate, Txn: 9, Page: 3, Off: 2, Del: 3, New: []byte("abc")},
		{LSN: 50, Type: RecUndo, Txn: 9, CompLSN: 49, Old: []byte("was")},
		{LSN: 51, Type: RecCommit, Txn: 9},
	}
	for _, in := range recs {
		buf := encodeChunk(in)
		var c chunkCodec
		var out Record
		n, err := c.decode(append(buf, 0xAA), &out) // trailing bytes are the next record's
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if n != len(buf) {
			t.Fatalf("%+v: consumed %d of %d", in, n, len(buf))
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
		if out.IsCLR() != (in.Type == RecUpdate && in.CompLSN != 0) {
			t.Fatalf("%+v: IsCLR = %v", in, out.IsCLR())
		}
		// Old and New alias the input: decoding allocates nothing, however
		// large the lengths an input claims.
		if a := testing.AllocsPerRun(100, func() { c = chunkCodec{}; _, _ = c.decode(buf, &out) }); a != 0 {
			t.Fatalf("%+v: decoding allocates %v times", in, a)
		}
	}
	// As one chunk, LSNs 43, 44 and 46 follow the record before them; 48
	// does not, because it is not the next LSN, and 51 does not, because
	// nothing follows an undo record.
	chunk := encodeChunk(recs...)
	out, err := decodeChunk(chunk)
	if err != nil || !reflect.DeepEqual(out, recs) {
		t.Fatalf("chunk round trip: %v\n in  %+v\n out %+v", err, recs, out)
	}
	var c chunkCodec
	var r Record
	for i, rest := 0, chunk; i < len(recs); i++ {
		if got, want := rest[0]&tagTypeMask > tagFollows, i == 1 || i == 2 || i == 4; got != want {
			t.Errorf("LSN %d: follows = %v, want %v", recs[i].LSN, got, want)
		}
		n, _ := c.decode(rest, &r)
		rest = rest[n:]
	}
}

func TestRecordMarshalProperty(t *testing.T) {
	f := func(lsn, txn, comp uint64, pg int64, off uint16, old, ins []byte, chain bool) bool {
		lsn |= 1 << 20 // leave room below for CompLSN
		in := Record{LSN: lsn, Type: RecUpdate, Txn: txn, Page: pg, Off: int(off % 4096), Del: len(old), New: ins}
		switch {
		case comp%3 == 0: // a CLR names the update it compensates
			in.CompLSN = 1 + comp%(lsn-1)
		case comp%3 == 1 && len(old) > 0: // an undo record names the update whose old bytes it holds
			in = Record{LSN: lsn, Type: RecUndo, Txn: txn, CompLSN: 1 + comp%(lsn-1), Old: old}
		}
		if len(in.New) == 0 {
			in.New = nil
		}
		// The commit after an update follows it, or (the other
		// transaction's) does not; nothing follows an undo record.
		commit := Record{LSN: lsn + 1, Type: RecCommit, Txn: txn}
		if !chain {
			commit.Txn++
		}
		recs := []Record{in, commit}
		chunk := encodeChunk(recs...)
		out, err := decodeChunk(chunk)
		// A following commit is its tag alone; a whole one adds its LSN and
		// Txn.
		follows := len(chunk)-len(encodeChunk(in)) == 1
		return err == nil && reflect.DeepEqual(recs, out) && follows == (chain && in.Type == RecUpdate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	r := Record{LSN: 9, Type: RecUpdate, Txn: 2, Page: 4, Off: 1, Del: 2, New: []byte("xyz")}
	good := encodeChunk(r)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	then := func(next ...byte) []byte { return append(append([]byte(nil), good...), next...) }
	for name, buf := range map[string][]byte{
		"header only":                 good[:3],
		"truncated body":              good[:len(good)-1],
		"undo with update flags":      mutate(func(b []byte) []byte { b[0] = b[0]&^tagTypeMask | byte(RecUndo); return b }),
		"type 0 with update flags":    mutate(func(b []byte) []byte { b[0] &^= tagTypeMask; return b }),
		"type 0":                      {0, 9, 2},
		"type 7":                      mutate(func(b []byte) []byte { b[0] |= tagTypeMask; return b }),
		"update with the unused flag": mutate(func(b []byte) []byte { b[0] |= tagUnused; return b }),
		"commit with a delta flag": mutate(func(b []byte) []byte {
			b[0] = b[0]&^tagTypeMask | byte(RecCommit)
			return b
		}),
		"overlong LSN":                {byte(RecCommit), 0x89, 0x00, 2},
		"LSN overflows":               append([]byte{byte(RecCommit)}, bytes.Repeat([]byte{0xff}, 11)...),
		"commit with the unused flag": {byte(RecCommit) | tagUnused, 9, 2},
		"CompLSN flagged but zero":    {byte(RecUpdate) | tagComp, 9, 2, 8, 0},
		"CompLSN at or below zero":    {byte(RecUpdate) | tagComp, 9, 2, 8, 9},
		"Off past the chunk":          {byte(RecUpdate) | tagOff, 9, 2, 8, 0x81, 0x80, 0x04},
		"Del past the chunk":          binary.AppendVarint([]byte{byte(RecUpdate) | tagComp | tagShrink, 9, 2, 8, 1}, LogChunkSize+1),
		"Off+Del past the chunk":      binary.AppendVarint([]byte{byte(RecUpdate) | tagComp | tagOff | tagShrink, 9, 2, 8, 1, 0x80, 0x80, 0x02}, LogChunkSize/2+1),
		"New longer than the input":   {byte(RecUpdate) | tagNew, 9, 2, 8, 0xff, 0x7f, 'x'},
		// Del is coded as Del-len(New), present only when not zero, and
		// the difference may not make Del negative.
		"Del equal to len(New), present": {byte(RecUpdate) | tagShrink | tagNew, 9, 2, 8, 0, 1, 'x'},
		"Del below zero":                 {byte(RecUpdate) | tagShrink | tagNew, 9, 2, 8, 3, 1, 'x'},
		// An undo record's fields are all present and it has no flags.
		"undo with the unused flag": {byte(RecUndo) | tagUnused, 9, 2, 1, 1, 'a'},
		"undo with a New flag":      {byte(RecUndo) | tagNew, 9, 2, 1, 1, 'a'},
		"undo with no old bytes":    {byte(RecUndo), 9, 2, 1, 0},
		"undo naming LSN 0":         {byte(RecUndo), 9, 2, 9, 1, 'a'},
		"undo shorter than its Old": {byte(RecUndo), 9, 2, 1, 2, 'a'},
		"following an undo record":  append(encodeChunk(Record{LSN: 9, Type: RecUndo, Txn: 2, CompLSN: 8, Old: []byte("a")}), byte(RecCommit)+tagFollows),
		// A record that follows carries no LSN or Txn of its own,
		// so it must have a record before it to take them from, and a
		// record that could follow must.
		"following at a chunk's start":   {byte(RecCommit) + tagFollows},
		"following with the unused flag": then(byte(RecCommit) + tagFollows | tagUnused),
		"whole where it should follow":   then(byte(RecCommit), 10, 2),
		"following past the last LSN":    append(encodeChunk(Record{LSN: 1<<64 - 1, Type: RecAbort, Txn: 2}), byte(RecAbort)+tagFollows),
		"following update, range wrong":  then(byte(RecUpdate)+tagFollows|tagOff, 8, 0x81, 0x80, 0x04),
	} {
		if recs, err := decodeChunk(buf); err == nil {
			t.Errorf("%s: accepted %x as %+v", name, buf, recs)
		}
	}
	var c chunkCodec
	var none Record
	if _, err := c.decode(nil, &none); err == nil {
		t.Errorf("decoded %+v from no bytes", none)
	}
}

// TestDeltaIsMinimal pins the diff rule: the common prefix and suffix are
// cut away, whatever the two lengths.
func TestDeltaIsMinimal(t *testing.T) {
	for _, c := range []struct {
		before, after string
		off, del      int
		ins           string
	}{
		{"", "", 0, 0, ""},
		{"same", "same", 4, 0, ""},
		{"", "grow", 0, 0, "grow"},
		{"shrink", "", 0, 6, ""},
		{"abcXdef", "abcYdef", 3, 1, "Y"},
		{"abcdef", "abcXYZdef", 3, 0, "XYZ"},
		{"abcXYZdef", "abcdef", 3, 3, ""},
		{"aaaa", "aa", 2, 2, ""},
		{"aa", "aaaa", 2, 0, "aa"},
		{"head-old", "head-newer", 5, 3, "newer"},
		{"nothing", "COMMON?", 0, 7, "COMMON?"},
	} {
		off, del, ins := diff([]byte(c.before), []byte(c.after))
		if off != c.off || del != c.del || string(ins) != c.ins {
			t.Errorf("diff(%q,%q) = (%d,%d,%q), want (%d,%d,%q)", c.before, c.after, off, del, ins, c.off, c.del, c.ins)
		}
		got, err := splice([]byte(c.before), off, del, ins)
		if err != nil || string(got) != c.after {
			t.Errorf("splice(%q) = %q, %v; want %q", c.before, got, err, c.after)
		}
		back, err := splice(got, off, len(ins), []byte(c.before)[off:off+del])
		if err != nil || string(back) != c.before {
			t.Errorf("inverse splice(%q) = %q, %v; want %q", c.after, back, err, c.before)
		}
	}
	if _, err := splice([]byte("short"), 3, 4, nil); err == nil {
		t.Error("splice accepted a range past the end of the page")
	}
}

func TestCommitDurableAcrossCrash(t *testing.T) {
	m, _ := newTestManager(Config{})
	if err := m.Load(1, page("v0")); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, 1, page("v1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadCommitted(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("committed write lost: %q", got)
	}
}

func TestUncommittedRolledBack(t *testing.T) {
	m, _ := newTestManager(Config{PoolPages: 2}) // tiny pool forces steals
	for p := 0; p < 4; p++ {
		if err := m.Load(int64(p), page(fmt.Sprintf("orig%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := m.Write(1, int64(p), page("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	// The tiny pool stole uncommitted pages to disk.
	if m.Stats()["steals"] == 0 {
		t.Fatal("expected steals with a 2-page pool")
	}
	m.Crash()
	journal := obs.NewJournal()
	m.SetJournal(journal)
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		got, err := m.ReadCommitted(int64(p))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("orig%d", p); string(got) != want {
			t.Fatalf("page %d = %q, want %q", p, got, want)
		}
	}
	if events(journal, "undo") == 0 {
		t.Fatal("recovery performed no undo")
	}
}

func TestNoForceRedo(t *testing.T) {
	// Commit without the data page ever reaching disk; redo must apply it.
	m, store := newTestManager(Config{})
	if err := m.Load(1, page("v0")); err != nil {
		t.Fatal(err)
	}
	_, wBefore := store.Stats()
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, 1, page("v1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	_, wAfter := store.Stats()
	if wAfter != wBefore {
		t.Fatal("no-force violated: data page written at commit")
	}
	m.Crash()
	journal := obs.NewJournal()
	m.SetJournal(journal)
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "v1" {
		t.Fatalf("redo failed: %q", got)
	}
	if events(journal, "redo") == 0 {
		t.Fatal("recovery performed no redo")
	}
}

func TestRuntimeAbort(t *testing.T) {
	m, _ := newTestManager(Config{})
	if err := m.Load(1, page("v0")); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, 1, page("bad")); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(1); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "v0" {
		t.Fatalf("abort did not restore: %q", got)
	}
}

func TestAbortThenCommitSamePageSurvivesCrash(t *testing.T) {
	// The CLR case: T1 updates and aborts, T2 then commits the same page.
	// Recovery must keep T2's value, not re-undo T1.
	m, _ := newTestManager(Config{PoolPages: 2})
	if err := m.Load(1, page("v0")); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, 1, page("t1")); err != nil {
		t.Fatal(err)
	}
	// Push T1's dirty page to disk (steal) before the abort.
	if err := m.Load(50, page("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(9); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(9, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(9, 51); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(9); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(2, 1, page("t2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(2); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "t2" {
		t.Fatalf("committed value clobbered by stale undo: %q", got)
	}
}

func TestParallelStreamsDistributeAndRecover(t *testing.T) {
	for _, sel := range []Selection{PageMod, TxnMod} {
		sel := sel
		t.Run(sel.String(), func(t *testing.T) {
			m, _ := newTestManager(Config{Streams: 4, Selection: sel})
			for p := 0; p < 16; p++ {
				if err := m.Load(int64(p), page("orig")); err != nil {
					t.Fatal(err)
				}
			}
			for tid := uint64(1); tid <= 8; tid++ {
				if err := m.Begin(tid); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < 16; p += 2 {
					if err := m.Write(tid, int64(p), page(fmt.Sprintf("t%d", tid))); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Commit(tid); err != nil {
					t.Fatal(err)
				}
			}
			stats := m.Stats()
			used := 0
			for i := 0; i < 4; i++ {
				if stats[fmt.Sprintf("stream%d.records", i)] > 0 {
					used++
				}
			}
			if sel != TxnMod && used < 2 {
				t.Fatalf("%v: only %d streams used", sel, used)
			}
			m.Crash()
			if err := m.Recover(); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 16; p += 2 {
				got, _ := m.ReadCommitted(int64(p))
				if string(got) != "t8" {
					t.Fatalf("page %d = %q, want t8", p, got)
				}
			}
		})
	}
}

func TestInDoubtCommitIsAtomic(t *testing.T) {
	// Cut power during the commit force; after recovery the transaction is
	// either fully applied or fully absent.
	for budget := int64(0); budget < 6; budget++ {
		m, _ := newTestManager(Config{Streams: 3})
		for p := 0; p < 3; p++ {
			if err := m.Load(int64(p), page("orig")); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Begin(1); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			if err := m.Write(1, int64(p), page("new")); err != nil {
				t.Fatal(err)
			}
		}
		m.LogStore().SetFaultHook(pagestore.CrashAtMutation(budget + 1))
		err := m.Commit(1)
		m.Crash()
		m.LogStore().SetFaultHook(nil)
		if rerr := m.Recover(); rerr != nil {
			t.Fatal(rerr)
		}
		var news, origs int
		for p := 0; p < 3; p++ {
			got, rerr := m.ReadCommitted(int64(p))
			if rerr != nil {
				t.Fatal(rerr)
			}
			switch string(got) {
			case "new":
				news++
			case "orig":
				origs++
			default:
				t.Fatalf("budget %d: page %d = %q", budget, p, got)
			}
		}
		if news != 0 && news != 3 {
			t.Fatalf("budget %d: non-atomic commit: %d new, %d orig", budget, news, origs)
		}
		if err == nil && news != 3 {
			t.Fatalf("budget %d: commit acked but lost", budget)
		}
	}
}

// TestFailedForceFailsEveryCommit cuts the power in the middle of a group
// force that covers two commits on three streams. Neither commit is
// acknowledged, each stream's chunk cursor stays at its first chunk not
// written, and the next seal takes up those chunks again, with the same
// numbers and bytes, so no commit of the failed force can be acknowledged
// by a later force that has nothing left to write. It also pins what a
// waiting committer reads: Committed reports a commit in a force in flight
// not done, and each commit of the failed force done with the force's
// error; Gathering holds until both are reported. A third commit, which a
// good force covers, is done with nil.
func TestFailedForceFailsEveryCommit(t *testing.T) {
	m, _ := newTestManager(Config{Streams: 3})
	j := obs.NewJournal()
	m.SetJournal(j)
	for tid := uint64(1); tid <= 2; tid++ {
		if err := m.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(tid, int64(tid), page("new")); err != nil { // streams 1 and 2
			t.Fatal(err)
		}
		if done, err := m.AppendCommit(tid); done || err != nil { // stream 0
			t.Fatal(done, err)
		}
	}
	if !m.Gathering() {
		t.Fatal("two commit records appended, but Gathering is false")
	}
	var f Batch
	m.Seal(&f)
	want := []pagestore.PageID{chunkID(1, 0), chunkID(2, 0), chunkID(0, 0)}
	var ids []pagestore.PageID
	for _, w := range f.writes {
		ids = append(ids, w.id)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("the force writes %v, want %v: the commit records' stream last", ids, want)
	}
	for tid := uint64(1); tid <= 2; tid++ {
		if done, err := m.Committed(tid); done || err != nil {
			t.Errorf("txn %d, its force in flight: Committed = %v, %v; want not done", tid, done, err)
		}
	}
	if m.Gathering() {
		t.Error("Gathering is true with every commit record sealed")
	}
	m.LogStore().SetFaultHook(pagestore.CrashAtMutation(2))
	err := WriteBatch(&f)
	if err == nil || f.written != 1 {
		t.Fatalf("WriteBatch = %v after %d chunks, want a failure after 1", err, f.written)
	}
	m.Settle(&f, err)
	for tid := uint64(1); tid <= 2; tid++ {
		if m.att.Get(tid) == nil {
			t.Errorf("txn %d ended, but its commit's force failed", tid)
		}
	}
	for _, r := range j.Records() {
		if r.Event == "commit" {
			t.Errorf("journal acknowledges txn %d, but its force failed", r.Txn)
		}
	}
	for i, next := range []int64{0, 1, 0} {
		if got := m.streams[i].nextChunk; got != next {
			t.Errorf("stream %d's next chunk is %d, want %d", i, got, next)
		}
	}
	for tid := uint64(1); tid <= 2; tid++ {
		if !m.Gathering() {
			t.Errorf("Gathering is false before txn %d's failed commit was reported", tid)
		}
		if done, err := m.Committed(tid); !done || !errors.Is(err, pagestore.ErrCrashed) {
			t.Errorf("txn %d, its force failed: Committed = %v, %v; want done with the power cut", tid, done, err)
		}
	}
	if m.Gathering() {
		t.Error("Gathering is true with both failed commits reported")
	}
	var g Batch
	m.Seal(&g)
	if !reflect.DeepEqual(g.writes, f.writes[1:]) {
		t.Errorf("the next seal writes %d chunks; want the 2 the failed force did not write, as they were", len(g.writes))
	}

	// The power comes back and the re-sealed chunks are written; the two
	// commits stay in doubt. A third commit's force is written whole.
	m.LogStore().SetFaultHook(nil)
	if err := m.LogStore().Reset(); err != nil {
		t.Fatal(err)
	}
	m.Settle(&g, WriteBatch(&g))
	if err := m.Begin(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(3, 3, page("new")); err != nil {
		t.Fatal(err)
	}
	if done, err := m.AppendCommit(3); done || err != nil {
		t.Fatal(done, err)
	}
	m.Seal(&g)
	m.Settle(&g, WriteBatch(&g))
	if done, err := m.Committed(3); !done || err != nil {
		t.Errorf("txn 3, its force written: Committed = %v, %v; want done with nil", done, err)
	}
	if done, err := m.Committed(1); !done || !errors.Is(err, pagestore.ErrCrashed) {
		t.Errorf("txn 1 after a later force: Committed = %v, %v; want still in doubt", done, err)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	m, _ := newTestManager(Config{})
	if err := m.Load(1, page("v0")); err != nil {
		t.Fatal(err)
	}
	for tid := uint64(1); tid <= 5; tid++ {
		if err := m.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(tid, 1, page(fmt.Sprintf("v%d", tid))); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Stats()["truncatedChunks"] == 0 {
		t.Fatal("checkpoint truncated nothing")
	}
	// Only the checkpoint chunk and the stream metadata page remain.
	if n := m.LogStore().Pages(); n > 2 {
		t.Fatalf("log not truncated: %d pages remain", n)
	}
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "v5" {
		t.Fatalf("post-checkpoint state lost: %q", got)
	}
}

// TestDamagedMetaPageFailsRestart: a stream's meta page holds its 8-byte
// truncation point and 8-byte dead horizon. Once a checkpoint has deleted
// chunk 0, a meta page of any other length must fail restart, naming the
// stream; reading it as "no truncation point" would find no chunk 0 and
// lose every commit since. So must a 16-byte page whose truncation point
// lies past the stream's chunk numbers (every byte 1 here).
func TestDamagedMetaPageFailsRestart(t *testing.T) {
	for _, n := range []int{3, 8, 16, 24} {
		t.Run(fmt.Sprintf("%d_bytes", n), func(t *testing.T) {
			m, _ := newTestManager(Config{})
			must(t, m.Load(1, page("v0")))
			for tid := uint64(1); tid <= 2; tid++ {
				must(t, m.Begin(tid))
				must(t, m.Write(tid, 1, page(fmt.Sprintf("v%d", tid))))
				must(t, m.Commit(tid))
				if tid == 1 {
					must(t, m.Checkpoint())
				}
			}
			if m.Stats()["truncatedChunks"] == 0 {
				t.Fatal("checkpoint truncated nothing")
			}
			m.Crash()
			must(t, m.LogStore().Write(metaID(0), bytes.Repeat([]byte{1}, n), 0))
			err := m.Recover()
			if err == nil {
				got, _ := m.ReadCommitted(1)
				t.Fatalf("Recover accepted a %d-byte meta page; page 1 = %q", n, got)
			}
			if !strings.Contains(err.Error(), "stream 0") {
				t.Fatalf("error does not name the stream: %v", err)
			}
		})
	}
}

func TestFuzzyCheckpointKeepsActiveTxnRecords(t *testing.T) {
	m, _ := newTestManager(Config{})
	if err := m.Load(1, page("v0")); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(2, page("w0")); err != nil {
		t.Fatal(err)
	}
	// An active transaction spans the checkpoint.
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(1, 1, page("dirty")); err != nil {
		t.Fatal(err)
	}
	// Unrelated committed work that the checkpoint may truncate.
	for tid := uint64(10); tid < 15; tid++ {
		if err := m.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := m.Write(tid, 2, page(fmt.Sprintf("w%d", tid))); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Transaction 1 keeps running and never commits; the checkpoint flushed
	// its dirty page (steal) after an undo record, so recovery must undo it
	// — which requires its records to have survived truncation.
	if n := m.Stats()["stealsUncommitted"]; n != 1 {
		t.Fatalf("the checkpoint wrote %d pages holding an open update, want 1", n)
	}
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "v0" {
		t.Fatalf("active transaction not undone after a checkpoint: %q", got)
	}
	got, _ = m.ReadCommitted(2)
	if string(got) != "w14" {
		t.Fatalf("committed work lost: %q", got)
	}
}

func TestCheckpointDuringWorkloadRepeatedly(t *testing.T) {
	m, _ := newTestManager(Config{Streams: 3, Selection: PageMod, PoolPages: 4})
	for p := 0; p < 8; p++ {
		if err := m.Load(int64(p), page("init")); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int]string{}
	for i := 0; i < 60; i++ {
		tid := uint64(i + 1)
		if err := m.Begin(tid); err != nil {
			t.Fatal(err)
		}
		p := i % 8
		v := fmt.Sprintf("v%d", i)
		if err := m.Write(tid, int64(p), page(v)); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tid); err != nil {
			t.Fatal(err)
		}
		want[p] = v
		if i%7 == 0 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.Stats()["truncatedChunks"] == 0 {
		t.Fatal("repeated checkpoints truncated nothing")
	}
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	for p, v := range want {
		got, _ := m.ReadCommitted(int64(p))
		if string(got) != v {
			t.Fatalf("page %d = %q, want %q", p, got, v)
		}
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	// Property: under a random schedule of writes/commits/aborts with a
	// random crash point, recovery restores exactly the committed model.
	f := func(script []uint16, crashBudget uint16) bool {
		m, store := newTestManager(Config{Streams: 2, PoolPages: 3, Selection: PageMod})
		const pages = 6
		model := map[int]string{} // committed state
		for p := 0; p < pages; p++ {
			v := fmt.Sprintf("init%d", p)
			if err := m.Load(int64(p), page(v)); err != nil {
				return false
			}
			model[p] = v
		}
		store.SetFaultHook(pagestore.CrashAtMutation(int64(crashBudget%128) + 5))
		tid := uint64(0)
		active := false
		pending := map[int]string{}
		var doubt map[int]string // write set of an in-doubt commit, if any
		crashed := false
		for i, op := range script {
			if crashed {
				break
			}
			switch op % 4 {
			case 0: // begin
				if !active {
					tid++
					if err := m.Begin(tid); err != nil {
						crashed = true
					}
					active = true
					pending = map[int]string{}
				}
			case 1: // write
				if active {
					p := int(op/4) % pages
					v := fmt.Sprintf("t%d-%d", tid, i)
					if err := m.Write(tid, int64(p), page(v)); err != nil {
						crashed = true
						break
					}
					pending[p] = v
				}
			case 2: // commit
				if active {
					if err := m.Commit(tid); err == nil {
						for p, v := range pending {
							model[p] = v
						}
					} else {
						doubt = pending // power failed mid-commit
						crashed = true
					}
					active = false
				}
			case 3: // abort
				if active {
					if err := m.Abort(tid); err != nil {
						crashed = true
					}
					active = false
				}
			}
		}
		m.Crash()
		store.SetFaultHook(nil)
		if err := m.Recover(); err != nil {
			return false
		}
		// The in-doubt commit must be all-or-nothing.
		doubtApplied, doubtReverted := 0, 0
		for p := 0; p < pages; p++ {
			got, err := m.ReadCommitted(int64(p))
			if err != nil {
				return false
			}
			if v, inDoubt := doubt[p]; inDoubt {
				switch string(got) {
				case v:
					doubtApplied++
				case model[p]:
					doubtReverted++
				default:
					return false
				}
				continue
			}
			if string(got) != model[p] {
				return false
			}
		}
		return doubtApplied == 0 || doubtReverted == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
