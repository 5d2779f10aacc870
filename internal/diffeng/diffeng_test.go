package diffeng

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

func newEngine() (*Engine, *pagestore.Store) {
	store := pagestore.New(4096)
	return New(store), store
}

// restart crashes and recovers e with a journal attached and returns the N
// of the restart's scan event: the entries of the complete runs it read.
func restart(t testing.TB, e *Engine) (int64, error) {
	t.Helper()
	j := obs.NewJournal()
	e.SetJournal(j)
	defer e.SetJournal(nil)
	e.Crash()
	if err := e.Recover(); err != nil {
		return 0, err
	}
	for _, r := range j.Records() {
		if r.Event == "scan" {
			return r.N, nil
		}
	}
	t.Fatal("restart journaled no scan event")
	return 0, nil
}

func TestViewResolution(t *testing.T) {
	e, _ := newEngine()
	if err := e.Load(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	// Base visible before any differential.
	got, err := e.ReadCommitted(1)
	if err != nil || string(got) != "base" {
		t.Fatalf("base read: %q %v", got, err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Own pending write visible; committed view unchanged.
	own, _ := e.Read(1, 1)
	if string(own) != "v1" {
		t.Fatalf("own read: %q", own)
	}
	com, _ := e.ReadCommitted(1)
	if string(com) != "base" {
		t.Fatalf("committed view leaked: %q", com)
	}
	if err := e.Commit(1); err != nil {
		t.Fatal(err)
	}
	com, _ = e.ReadCommitted(1)
	if string(com) != "v1" {
		t.Fatalf("after commit: %q", com)
	}
	// The base file itself is untouched.
	raw, _, err := e.storeRead(1)
	if err != nil || string(raw) != "base" {
		t.Fatalf("base file modified: %q %v", raw, err)
	}
}

// storeRead peeks at the base file directly.
func (e *Engine) storeRead(p int64) ([]byte, uint64, error) {
	return e.store.Read(pagestore.PageID(p))
}

func TestAbortLeavesNoTrace(t *testing.T) {
	e, store := newEngine()
	if err := e.Load(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	_, wBefore := store.Stats()
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(1); err != nil {
		t.Fatal(err)
	}
	_, wAfter := store.Stats()
	if wAfter != wBefore {
		t.Fatal("aborted transaction touched stable storage")
	}
	got, _ := e.ReadCommitted(1)
	if string(got) != "base" {
		t.Fatalf("abort leaked: %q", got)
	}
}

func TestCrashRecovery(t *testing.T) {
	e, _ := newEngine()
	if err := e.Load(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(2, 1, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadCommitted(1)
	if string(got) != "committed" {
		t.Fatalf("after recovery: %q", got)
	}
}

func TestInDoubtCommitAtomic(t *testing.T) {
	for budget := int64(0); budget < 4; budget++ {
		e, store := newEngine()
		for p := int64(0); p < 3; p++ {
			if err := e.Load(p, []byte("base")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Begin(1); err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < 3; p++ {
			if err := e.Write(1, p, []byte("new")); err != nil {
				t.Fatal(err)
			}
		}
		store.SetFaultHook(pagestore.CrashAtMutation(budget + 1))
		commitErr := e.Commit(1)
		e.Crash()
		store.SetFaultHook(nil)
		if err := e.Recover(); err != nil {
			t.Fatal(err)
		}
		news := 0
		for p := int64(0); p < 3; p++ {
			got, err := e.ReadCommitted(p)
			if err != nil {
				t.Fatal(err)
			}
			switch string(got) {
			case "new":
				news++
			case "base":
			default:
				t.Fatalf("budget %d: page %d = %q", budget, p, got)
			}
		}
		if news != 0 && news != 3 {
			t.Fatalf("budget %d: torn commit", budget)
		}
		if commitErr == nil && news != 3 {
			t.Fatalf("budget %d: acked commit lost", budget)
		}
	}
}

func TestMergeCompacts(t *testing.T) {
	e, _ := newEngine()
	for p := int64(0); p < 4; p++ {
		if err := e.Load(p, []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int64{0, 1} {
		if err := e.Write(1, p, []byte(fmt.Sprintf("updated-%d", p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Merge(); err != nil {
		t.Fatal(err)
	}
	// The view survives merge + crash + recovery, now from the base alone:
	// the differential files are empty, so recovery replays nothing.
	n, err := restart(t, e)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovery after a merge replayed %d entries, want 0", n)
	}
	for p, want := range []string{"updated-0", "updated-1", "base", "base"} {
		if got, err := e.ReadCommitted(int64(p)); err != nil || string(got) != want {
			t.Fatalf("after merge and recovery page %d = %q, %v; want %q", p, got, err, want)
		}
	}
}

// commitPages commits tid's writes, page by page in ascending order.
func commitPages(t *testing.T, e *Engine, tid uint64, writes map[int64][]byte) {
	t.Helper()
	if err := e.Begin(tid); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 4; p++ {
		if v, ok := writes[p]; ok {
			if err := e.Write(tid, p, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Commit(tid); err != nil {
		t.Fatal(err)
	}
}

// TestMergeCrashKeepsNewest cuts power at every mutation of a Merge over
// three commits, the first a run of two chunks, and restarts twice: every
// page must read its newest commit both times. A cut among the deletes
// leaves older runs in A; the empty chunk 0 written before them keeps
// restart from replaying those over the newer merged base.
func TestMergeCrashKeepsNewest(t *testing.T) {
	commits := []map[int64][]byte{
		{0: bytes.Repeat([]byte{'a'}, 3000), 1: bytes.Repeat([]byte{'b'}, 3000)},
		{0: []byte("two")},
		{1: []byte("three"), 2: []byte("three")},
	}
	want := []string{"two", "three", "three", "base"}
	cuts := 0
	for cut := int64(1); ; cut++ {
		e, store := newEngine()
		for p := int64(0); p < 4; p++ {
			if err := e.Load(p, []byte("base")); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range commits {
			commitPages(t, e, uint64(i+1), w)
		}
		store.SetFaultHook(pagestore.CrashAtMutation(cut))
		err := e.Merge()
		store.SetFaultHook(nil)
		if err == nil {
			break
		}
		cuts++
		for restart := 1; restart <= 2; restart++ {
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatalf("cut %d, restart %d: %v", cut, restart, err)
			}
			for p, v := range want {
				if got, err := e.ReadCommitted(int64(p)); err != nil || string(got) != v {
					t.Fatalf("cut %d, restart %d: page %d = %.8q, %v; want %q", cut, restart, p, got, err, v)
				}
			}
		}
	}
	// Three base pages, the empty chunk 0, and four chunk deletes.
	if cuts != 8 {
		t.Fatalf("Merge made %d stable mutations, want 8", cuts)
	}
}

// TestTornRunIsDeleted cuts power between the two chunks of a run and
// restarts on a new engine, as a new process would. Its transaction ids
// start over, so the next txn 1 commits too; the torn run's complete entry
// must not commit with it.
func TestTornRunIsDeleted(t *testing.T) {
	e, store := newEngine()
	for p := int64(0); p < 4; p++ {
		if err := e.Load(p, []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 2; p++ {
		if err := e.Write(1, p, bytes.Repeat([]byte{'x'}, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	store.SetFaultHook(pagestore.CrashAtMutation(2))
	if err := e.Commit(1); err == nil {
		t.Fatal("a commit cut at its second chunk succeeded")
	}
	store.SetFaultHook(nil)
	e = New(store)
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	commitPages(t, e, 1, map[int64][]byte{3: []byte("new")})
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	for p, v := range []string{"base", "base", "base", "new"} {
		if got, err := e.ReadCommitted(int64(p)); err != nil || string(got) != v {
			t.Fatalf("page %d = %.8q, %v; want %q", p, got, err, v)
		}
	}
}

func TestMergeRequiresQuiescence(t *testing.T) {
	e, _ := newEngine()
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Merge(); err == nil {
		t.Fatal("merge allowed with active transaction")
	}
}

func TestEntryMarshalProperty(t *testing.T) {
	f := func(txn uint64, pg int64, data []byte, commit bool) bool {
		in := entry{typ: entryAdd, txn: txn, page: pg, data: data}
		if commit {
			in = entry{typ: entryCommit, txn: txn}
		}
		buf := in.marshal(nil)
		out, n, err := unmarshalEntry(buf, len(data))
		if err != nil || n != len(buf) {
			return false
		}
		if out.typ != in.typ || out.txn != in.txn || out.page != in.page {
			return false
		}
		return string(out.data) == string(in.data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEntryTypesRefused: an entry is an A entry (1) or a commit (3). Type 2,
// a D-file obituary, is never written, so a chunk holding one is corrupt.
func TestEntryTypesRefused(t *testing.T) {
	for _, typ := range []entryType{0, 2, 4, 0xff} {
		buf := entry{typ: typ, txn: 1, page: 1}.marshal(nil)
		if en, _, err := unmarshalEntry(buf, 0); err == nil {
			t.Errorf("type %d: decoded %+v", typ, en)
		}
	}
}

func TestViewEquivalenceProperty(t *testing.T) {
	// Property: after any committed/aborted history (with occasional crash
	// and merge), the engine's view equals a model map.
	f := func(script []uint16) bool {
		e, _ := newEngine()
		const pages = 5
		model := map[int64]string{}
		for p := int64(0); p < pages; p++ {
			v := fmt.Sprintf("base%d", p)
			if err := e.Load(p, []byte(v)); err != nil {
				return false
			}
			model[p] = v
		}
		tid := uint64(0)
		for i, op := range script {
			tid++
			if e.Begin(tid) != nil {
				return false
			}
			p := int64(op) % pages
			v := fmt.Sprintf("t%d-%d", tid, i)
			if e.Write(tid, p, []byte(v)) != nil {
				return false
			}
			switch op % 5 {
			case 0: // abort
				if e.Abort(tid) != nil {
					return false
				}
			default:
				if e.Commit(tid) != nil {
					return false
				}
				model[p] = v
			}
			if op%11 == 0 {
				e.Crash()
				if e.Recover() != nil {
					return false
				}
			}
			if op%13 == 0 {
				if e.Merge() != nil {
					return false
				}
			}
		}
		for p := int64(0); p < pages; p++ {
			got, err := e.ReadCommitted(p)
			if err != nil {
				return false
			}
			if string(got) != model[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
