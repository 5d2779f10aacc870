package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
)

func newTestManager(cfg Config) (*Manager, *pagestore.Store) {
	store := pagestore.New(4096)
	return NewManager(store, cfg), store
}

func page(s string) []byte { return []byte(s) }

func TestRecordMarshalRoundTrip(t *testing.T) {
	for _, in := range []Record{
		{LSN: 42, Type: RecUpdate, Txn: 7, Page: 99, PrevLSN: 40, Off: 5, Del: 3, Old: []byte("old"), New: []byte("newer")},
		{LSN: 43, Type: RecUpdate, Txn: 7, Page: -1, PrevLSN: 42, CompLSN: 12, Off: 5, Del: 5, New: []byte("old")},
		{LSN: 1, Type: RecUpdate, Txn: 1, New: []byte("first")},
		{LSN: 44, Type: RecCommit, Txn: 7, PrevLSN: 43},
		{LSN: 45, Type: RecAbort, Txn: 8, PrevLSN: 2},
		{LSN: 46, Type: RecCheckpoint, PrevLSN: 45},
		{LSN: 1, Type: RecCheckpoint},
	} {
		buf := in.Marshal(nil)
		out, n, err := UnmarshalRecord(append(buf, 0xAA)) // trailing bytes are the next record's
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if n != len(buf) {
			t.Fatalf("%+v: consumed %d of %d", in, n, len(buf))
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
		if out.IsCLR() != (in.CompLSN != 0) {
			t.Fatalf("%+v: IsCLR = %v", in, out.IsCLR())
		}
		// Old and New alias the input: decoding allocates nothing, however
		// large the lengths an input claims.
		if a := testing.AllocsPerRun(100, func() { _, _, _ = UnmarshalRecord(buf) }); a != 0 {
			t.Fatalf("%+v: decoding allocates %v times", in, a)
		}
	}
}

func TestRecordMarshalProperty(t *testing.T) {
	f := func(lsn, txn, prev, comp uint64, pg int64, off uint16, old, ins []byte) bool {
		lsn |= 1 << 20 // leave room below for PrevLSN and CompLSN
		in := Record{LSN: lsn, Type: RecUpdate, Txn: txn, Page: pg, PrevLSN: prev % lsn,
			Off: int(off % 4096), Del: len(old), Old: old, New: ins}
		if comp%2 == 0 { // a CLR names the update it compensates and carries no Old
			in.CompLSN, in.Old = 1+comp%(lsn-1), nil
		}
		if len(in.Old) == 0 {
			in.Old = nil
		}
		if len(in.New) == 0 {
			in.New = nil
		}
		out, n, err := UnmarshalRecord(in.Marshal(nil))
		return err == nil && n == len(in.Marshal(nil)) && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	r := Record{LSN: 9, Type: RecUpdate, Txn: 2, Page: 4, PrevLSN: 8, Off: 1, Del: 2, Old: []byte("ab"), New: []byte("xyz")}
	good := r.Marshal(nil)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, buf := range map[string][]byte{
		"empty":          {},
		"header only":    good[:3],
		"truncated body": good[:len(good)-1],
		"type 0":         mutate(func(b []byte) []byte { b[0] &^= tagTypeMask; return b }),
		"type 7":         mutate(func(b []byte) []byte { b[0] |= tagTypeMask; return b }),
		"commit with a delta flag": mutate(func(b []byte) []byte {
			b[0] = b[0]&^tagTypeMask | byte(RecCommit)
			return b
		}),
		"overlong LSN":              {byte(RecCommit), 0x89, 0x00, 2},
		"LSN overflows":             append([]byte{byte(RecCommit)}, bytes.Repeat([]byte{0xff}, 11)...),
		"PrevLSN flagged but zero":  {byte(RecCommit) | tagPrev, 9, 2, 0},
		"PrevLSN at or below zero":  {byte(RecCommit) | tagPrev, 9, 2, 9},
		"Off past the chunk":        {byte(RecUpdate) | tagOff, 9, 2, 8, 0x81, 0x80, 0x04},
		"Del past the chunk":        {byte(RecUpdate) | tagComp | tagDel, 9, 2, 8, 1, 0x81, 0x80, 0x04},
		"Off+Del past the chunk":    {byte(RecUpdate) | tagComp | tagOff | tagDel, 9, 2, 8, 1, 0x81, 0x80, 0x02, 0x80, 0x80, 0x02},
		"New longer than the input": {byte(RecUpdate) | tagNew, 9, 2, 8, 0xff, 0x7f, 'x'},
	} {
		if _, _, err := UnmarshalRecord(buf); err == nil {
			t.Errorf("%s: accepted %x", name, buf)
		}
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
		if err := m.Load(pagestore.PageID(p), page(fmt.Sprintf("orig%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := m.Write(1, pagestore.PageID(p), page("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	// The tiny pool stole uncommitted pages to disk.
	if m.Stats()["steals"] == 0 {
		t.Fatal("expected steals with a 2-page pool")
	}
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		got, err := m.ReadCommitted(pagestore.PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("orig%d", p); string(got) != want {
			t.Fatalf("page %d = %q, want %q", p, got, want)
		}
	}
	if m.Stats()["undone"] == 0 {
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
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "v1" {
		t.Fatalf("redo failed: %q", got)
	}
	if m.Stats()["redone"] == 0 {
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
	for _, sel := range []Selection{Cyclic, Random, PageMod, TxnMod} {
		sel := sel
		t.Run(sel.String(), func(t *testing.T) {
			m, _ := newTestManager(Config{Streams: 4, Selection: sel})
			for p := 0; p < 16; p++ {
				if err := m.Load(pagestore.PageID(p), page("orig")); err != nil {
					t.Fatal(err)
				}
			}
			for tid := uint64(1); tid <= 8; tid++ {
				if err := m.Begin(tid); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < 16; p += 2 {
					if err := m.Write(tid, pagestore.PageID(p), page(fmt.Sprintf("t%d", tid))); err != nil {
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
				got, _ := m.ReadCommitted(pagestore.PageID(p))
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
			if err := m.Load(pagestore.PageID(p), page("orig")); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Begin(1); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			if err := m.Write(1, pagestore.PageID(p), page("new")); err != nil {
				t.Fatal(err)
			}
		}
		m.LogStore().SetWriteBudget(budget)
		err := m.Commit(1)
		m.Crash()
		if rerr := m.Recover(); rerr != nil {
			t.Fatal(rerr)
		}
		var news, origs int
		for p := 0; p < 3; p++ {
			got, rerr := m.ReadCommitted(pagestore.PageID(p))
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
	// its dirty page (steal), so recovery must undo it — which requires its
	// records to have survived truncation.
	m.Crash()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadCommitted(1)
	if string(got) != "v0" {
		t.Fatalf("active transaction not undone after fuzzy checkpoint: %q", got)
	}
	got, _ = m.ReadCommitted(2)
	if string(got) != "w14" {
		t.Fatalf("committed work lost: %q", got)
	}
}

func TestCheckpointDuringWorkloadRepeatedly(t *testing.T) {
	m, _ := newTestManager(Config{Streams: 3, Selection: PageMod, PoolPages: 4})
	for p := 0; p < 8; p++ {
		if err := m.Load(pagestore.PageID(p), page("init")); err != nil {
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
		if err := m.Write(tid, pagestore.PageID(p), page(v)); err != nil {
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
		got, _ := m.ReadCommitted(pagestore.PageID(p))
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
			if err := m.Load(pagestore.PageID(p), page(v)); err != nil {
				return false
			}
			model[p] = v
		}
		store.SetWriteBudget(int64(crashBudget%128) + 4)
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
					if err := m.Write(tid, pagestore.PageID(p), page(v)); err != nil {
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
		if err := m.Recover(); err != nil {
			return false
		}
		// The in-doubt commit must be all-or-nothing.
		doubtApplied, doubtReverted := 0, 0
		for p := 0; p < pages; p++ {
			got, err := m.ReadCommitted(pagestore.PageID(p))
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
