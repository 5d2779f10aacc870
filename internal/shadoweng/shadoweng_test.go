package shadoweng

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// replayed sums the N of j's replay events whose note is action: the pages
// restart redid or restored.
func replayed(j *obs.Journal, action string) int64 {
	var n int64
	for _, r := range j.Records() {
		if r.Event == "replay" && r.Note == action {
			n += r.N
		}
	}
	return n
}

func newShadow(t *testing.T) (*Engine, *pagestore.Store) {
	t.Helper()
	store := pagestore.New(4096)
	e, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

func TestShadowCommitVisible(t *testing.T) {
	e, _ := newShadow(t)
	if err := e.Load(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Committed state unchanged until commit.
	got, err := e.ReadCommitted(1)
	if err != nil || string(got) != "v0" {
		t.Fatalf("pre-commit state: %q %v", got, err)
	}
	// The transaction sees its own write.
	own, err := e.Read(1, 1)
	if err != nil || string(own) != "v1" {
		t.Fatalf("own read: %q %v", own, err)
	}
	if err := e.Commit(1); err != nil {
		t.Fatal(err)
	}
	got, _ = e.ReadCommitted(1)
	if string(got) != "v1" {
		t.Fatalf("post-commit: %q", got)
	}
}

func TestShadowAbortInvisible(t *testing.T) {
	e, _ := newShadow(t)
	if err := e.Load(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(1); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadCommitted(1)
	if string(got) != "v0" {
		t.Fatalf("abort leaked: %q", got)
	}
}

func TestShadowCrashRecovery(t *testing.T) {
	e, _ := newShadow(t)
	if err := e.Load(1, []byte("v0")); err != nil {
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

func TestShadowCommitAtomicUnderCrash(t *testing.T) {
	// Cut power at every possible write during commit; the multi-page
	// transaction must be all-or-nothing.
	for budget := int64(0); budget < 8; budget++ {
		e, store := newShadow(t)
		for p := int64(0); p < 3; p++ {
			if err := e.Load(p, []byte("orig")); err != nil {
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
			case "orig":
			default:
				t.Fatalf("budget %d: page %d = %q", budget, p, got)
			}
		}
		if news != 0 && news != 3 {
			t.Fatalf("budget %d: torn commit (%d/3 new)", budget, news)
		}
		if commitErr == nil && news != 3 {
			t.Fatalf("budget %d: acked commit lost", budget)
		}
	}
}

func TestShadowBlockReuse(t *testing.T) {
	e, _ := newShadow(t)
	if err := e.Load(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tid := uint64(i + 1)
		if err := e.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tid, 1, []byte(fmt.Sprintf("v%d", i+1))); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tid); err != nil {
			t.Fatal(err)
		}
	}
	// One live page: block usage must not grow without bound.
	s := e.Stats()
	if s["free"] == 0 {
		t.Fatal("superseded shadow blocks never freed")
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadCommitted(1)
	if string(got) != "v10" {
		t.Fatalf("after recover: %q", got)
	}
	if e.Stats()["free"] == 0 {
		t.Fatal("recovery GC reclaimed nothing")
	}
}

func overwriteEngines(t *testing.T) map[string]*OverwriteEngine {
	t.Helper()
	return map[string]*OverwriteEngine{
		"no-undo": NewOverwrite(pagestore.New(4096), NoUndo),
		"no-redo": NewOverwrite(pagestore.New(4096), NoRedo),
	}
}

func TestOverwriteCommitAbort(t *testing.T) {
	for name, e := range overwriteEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := e.Load(1, []byte("v0")); err != nil {
				t.Fatal(err)
			}
			if err := e.Begin(1); err != nil {
				t.Fatal(err)
			}
			if err := e.Write(1, 1, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if got, _ := e.Read(1, 1); string(got) != "v1" {
				t.Fatalf("own read: %q", got)
			}
			if err := e.Commit(1); err != nil {
				t.Fatal(err)
			}
			if got, _ := e.ReadCommitted(1); string(got) != "v1" {
				t.Fatalf("commit lost: %q", got)
			}
			if err := e.Begin(2); err != nil {
				t.Fatal(err)
			}
			if err := e.Write(2, 1, []byte("bad")); err != nil {
				t.Fatal(err)
			}
			if err := e.Abort(2); err != nil {
				t.Fatal(err)
			}
			if got, _ := e.ReadCommitted(1); string(got) != "v1" {
				t.Fatalf("abort leaked: %q", got)
			}
		})
	}
}

func TestOverwriteCrashAtomicity(t *testing.T) {
	for _, variant := range []Variant{NoUndo, NoRedo} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			for budget := int64(0); budget < 10; budget++ {
				store := pagestore.New(4096)
				e := NewOverwrite(store, variant)
				for p := int64(0); p < 3; p++ {
					if err := e.Load(p, []byte("orig")); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Begin(1); err != nil {
					t.Fatal(err)
				}
				store.SetFaultHook(pagestore.CrashAtMutation(budget + 1))
				failed := false
				for p := int64(0); p < 3; p++ {
					if err := e.Write(1, p, []byte("new")); err != nil {
						failed = true
						break
					}
				}
				var commitErr error
				if !failed {
					commitErr = e.Commit(1)
				} else {
					commitErr = fmt.Errorf("write failed")
				}
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
					case "orig":
					default:
						t.Fatalf("budget %d: page %d = %q", budget, p, got)
					}
				}
				if news != 0 && news != 3 {
					t.Fatalf("budget %d: torn transaction (%d/3)", budget, news)
				}
				if commitErr == nil && news != 3 {
					t.Fatalf("budget %d: acked commit lost", budget)
				}
			}
		})
	}
}

func TestOverwriteRecoveryRedoesCommitted(t *testing.T) {
	// No-undo: crash right after the intention record, before overwrites.
	store := pagestore.New(4096)
	e := NewOverwrite(store, NoUndo)
	if err := e.Load(1, []byte("orig")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// 1 scratch write + 1 intent write, then power fails on the home
	// overwrite (mutation 3).
	store.SetFaultHook(pagestore.CrashAtMutation(3))
	if err := e.Commit(1); err == nil {
		t.Fatal("commit should report interrupted overwrite")
	}
	e.Crash()
	store.SetFaultHook(nil)
	journal := obs.NewJournal()
	e.SetJournal(journal)
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadCommitted(1)
	if string(got) != "new" {
		t.Fatalf("committed intention not redone: %q", got)
	}
	if replayed(journal, "redo") == 0 {
		t.Fatal("no redo recorded")
	}
}

func TestOverwriteNoRedoRestoresUncommitted(t *testing.T) {
	store := pagestore.New(4096)
	e := NewOverwrite(store, NoRedo)
	if err := e.Load(1, []byte("orig")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	// In-place write is already on disk.
	if got, _ := e.ReadCommitted(1); string(got) != "dirty" {
		t.Fatalf("in-place write missing: %q", got)
	}
	e.Crash()
	journal := obs.NewJournal()
	e.SetJournal(journal)
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadCommitted(1)
	if string(got) != "orig" {
		t.Fatalf("uncommitted in-place write not restored: %q", got)
	}
	if replayed(journal, "restore") == 0 {
		t.Fatal("no restore recorded")
	}
}

func TestIntentMarshalRoundTrip(t *testing.T) {
	f := func(txn uint64, pairsRaw []int64) bool {
		in := intent{Txn: txn}
		for i := 0; i+1 < len(pairsRaw); i += 2 {
			in.Pairs = append(in.Pairs, [2]int64{pairsRaw[i], pairsRaw[i+1]})
		}
		out, err := unmarshalIntent(marshalIntent(in))
		if err != nil || out.Txn != in.Txn || len(out.Pairs) != len(in.Pairs) {
			return false
		}
		for i := range in.Pairs {
			if out.Pairs[i] != in.Pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowRandomHistoryProperty(t *testing.T) {
	// Property: after any sequence of committed/aborted transactions and a
	// crash, the canonical shadow engine equals the committed model.
	f := func(script []uint16) bool {
		store := pagestore.New(4096)
		e, err := New(store)
		if err != nil {
			return false
		}
		const pages = 5
		model := map[int64]string{}
		for p := int64(0); p < pages; p++ {
			v := fmt.Sprintf("init%d", p)
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
			if op%3 == 0 {
				if e.Abort(tid) != nil {
					return false
				}
			} else {
				if e.Commit(tid) != nil {
					return false
				}
				model[p] = v
			}
		}
		e.Crash()
		if e.Recover() != nil {
			return false
		}
		for p := int64(0); p < pages; p++ {
			got, err := e.ReadCommitted(p)
			if err != nil || string(got) != model[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
