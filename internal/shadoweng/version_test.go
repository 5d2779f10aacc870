package shadoweng

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
)

func newVersion(t *testing.T) (*VersionEngine, *pagestore.Store) {
	t.Helper()
	store := pagestore.New(4096)
	e, err := NewVersion(store)
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

func TestVersionCommitAbort(t *testing.T) {
	e, _ := newVersion(t)
	if err := e.Load(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Own tentative version visible to self, not to the committed view.
	own, _ := e.Read(1, 1)
	if string(own) != "v1" {
		t.Fatalf("own read: %q", own)
	}
	com, _ := e.ReadCommitted(1)
	if string(com) != "v0" {
		t.Fatalf("committed leaked: %q", com)
	}
	if err := e.Commit(1); err != nil {
		t.Fatal(err)
	}
	com, _ = e.ReadCommitted(1)
	if string(com) != "v1" {
		t.Fatalf("after commit: %q", com)
	}
	// The shadow copy still holds the previous version physically.
	if err := e.Begin(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(2, 1, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(2); err != nil {
		t.Fatal(err)
	}
	com, _ = e.ReadCommitted(1)
	if string(com) != "v1" {
		t.Fatalf("abort leaked: %q", com)
	}
}

func TestVersionAbortedStampNeverResurfaces(t *testing.T) {
	// An aborted transaction's stamp must not become visible when the
	// committed horizon later reaches it.
	e, _ := newVersion(t)
	if err := e.Load(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// Several aborted writers push tentative stamps up.
	for i := 0; i < 5; i++ {
		tid := uint64(i + 1)
		if err := e.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tid, 1, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
		if err := e.Abort(tid); err != nil {
			t.Fatal(err)
		}
	}
	// Now commit many transactions on another page to advance the horizon.
	for i := 0; i < 8; i++ {
		tid := uint64(100 + i)
		if err := e.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tid, 2, []byte(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tid); err != nil {
			t.Fatal(err)
		}
		got, _ := e.ReadCommitted(1)
		if string(got) != "v0" {
			t.Fatalf("after %d commits page 1 = %q", i+1, got)
		}
	}
}

func TestVersionOutOfOrderCommitHidesActiveStamp(t *testing.T) {
	// Transactions commit in any order, so a commit may publish the stamp
	// an older, still-active transaction wrote its blocks with. Those
	// blocks must stay invisible — before a crash and after recovery.
	e, _ := newVersion(t)
	for p := int64(1); p <= 3; p++ {
		if err := e.Load(p, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("loser")); err != nil {
		t.Fatal(err)
	}
	// Two later transactions commit while txn 1 stays open; the second
	// publishes the stamp txn 1 began with.
	for tid := uint64(2); tid <= 3; tid++ {
		if err := e.Begin(tid); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(tid, int64(tid), []byte("won")); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(tid); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := e.ReadCommitted(1); string(got) != "v0" {
		t.Fatalf("active txn's write visible as committed: %q", got)
	}
	if got, _ := e.Read(1, 1); string(got) != "loser" {
		t.Fatalf("txn 1 lost sight of its own write: %q", got)
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[int64]string{1: "v0", 2: "won", 3: "won"} {
		if got, _ := e.ReadCommitted(p); string(got) != want {
			t.Errorf("after recovery page %d = %q, want %q", p, got, want)
		}
	}
}

func TestVersionCrashAtomicity(t *testing.T) {
	for budget := int64(0); budget < 8; budget++ {
		store := pagestore.New(4096)
		e, err := NewVersion(store)
		if err != nil {
			t.Fatal(err)
		}
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
		store.SetWriteBudget(budget)
		commitErr := e.Commit(1)
		e.Crash()
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
			t.Fatalf("budget %d: torn commit (%d/3)", budget, news)
		}
		if commitErr == nil && news != 3 {
			t.Fatalf("budget %d: acked commit lost", budget)
		}
		// After recovery new transactions must work and stay consistent.
		if err := e.Begin(50); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(50, 0, []byte("post")); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(50); err != nil {
			t.Fatal(err)
		}
		got, _ := e.ReadCommitted(0)
		if string(got) != "post" {
			t.Fatalf("budget %d: post-recovery commit lost: %q", budget, got)
		}
	}
}

func TestVersionDoubleSpace(t *testing.T) {
	e, store := newVersion(t)
	if err := e.Load(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(1, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1); err != nil {
		t.Fatal(err)
	}
	// Both versions physically present: 2 blocks + timestamp page.
	if store.Pages() != 3 {
		t.Fatalf("pages = %d, want 3 (current + shadow + ts)", store.Pages())
	}
}

func TestVersionRandomHistoryProperty(t *testing.T) {
	f := func(script []uint16) bool {
		store := pagestore.New(4096)
		e, err := NewVersion(store)
		if err != nil {
			return false
		}
		const pages = 4
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
			if op%9 == 0 {
				e.Crash()
				if e.Recover() != nil {
					return false
				}
			}
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
