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
	// Two later transactions commit while txn 1 stays open; the first
	// publishes the stamp txn 1 began with, so txn 1 moves to a fresh one.
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

// TestVersionLoneCommitWritesNoRestamp: a transaction that commits with no
// other open writes with the stamp its commit publishes, after an abort
// too, so its commit writes the timestamp page and nothing else.
func TestVersionLoneCommitWritesNoRestamp(t *testing.T) {
	e, store := newVersion(t)
	for p := int64(1); p <= 2; p++ {
		if err := e.Load(p, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	for i, commit := range []bool{true, false, true} {
		tid := uint64(i + 1)
		_, before := store.Stats()
		if err := e.Begin(tid); err != nil {
			t.Fatal(err)
		}
		for p := int64(1); p <= 2; p++ {
			if err := e.Write(tid, p, []byte(fmt.Sprintf("t%d", tid))); err != nil {
				t.Fatal(err)
			}
		}
		if !commit {
			if err := e.Abort(tid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := e.Commit(tid); err != nil {
			t.Fatal(err)
		}
		if _, after := store.Stats(); after-before != 3 {
			t.Errorf("transaction %d wrote %d times, want 3: its two blocks and the timestamp page", tid, after-before)
		}
	}
}

// TestVersionOvertakingCommitCrashAtomicity runs the out-of-order scenario
// of TestVersionOutOfOrderCommitHidesActiveStamp with power cut at every
// mutation of each overtaking commit: the open holder's restamp, the
// committer's own restamp and the timestamp page. After recovery each
// commit is all or nothing, an acknowledged one survives, the open
// transaction's write never shows, and a new transaction commits.
func TestVersionOvertakingCommitCrashAtomicity(t *testing.T) {
	// Crash points per commit: txn 2's moves txn 1 off stamp 1, restamps
	// its own two blocks and writes the timestamp page; txn 3's has no
	// holder to move.
	points := map[uint64]int64{2: 4, 3: 3}
	for _, crashed := range []uint64{2, 3} {
		k := int64(1)
		for ; ; k++ {
			store := pagestore.New(4096)
			e, err := NewVersion(store)
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(1); p <= 5; p++ {
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
			var commitErr error
			for tid := uint64(2); tid <= crashed; tid++ {
				if err := e.Begin(tid); err != nil {
					t.Fatal(err)
				}
				for _, p := range []int64{int64(tid), int64(tid) + 2} {
					if err := e.Write(tid, p, []byte("won")); err != nil {
						t.Fatal(err)
					}
				}
				if tid == crashed {
					store.SetFaultHook(pagestore.CrashAtMutation(k))
				}
				commitErr = e.Commit(tid)
			}
			fired := store.Crashed()
			store.SetFaultHook(nil)
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			read := func(p int64) string {
				t.Helper()
				got, err := e.ReadCommitted(p)
				if err != nil {
					t.Fatal(err)
				}
				return string(got)
			}
			at := fmt.Sprintf("commit of txn %d, crash at mutation %d", crashed, k)
			if got := read(1); got != "v0" {
				t.Fatalf("%s: the open transaction's write shows as %q", at, got)
			}
			for tid := uint64(2); tid < crashed; tid++ {
				if got := read(int64(tid)); got != "won" {
					t.Fatalf("%s: txn %d's earlier commit lost: %q", at, tid, got)
				}
			}
			a, b := read(int64(crashed)), read(int64(crashed)+2)
			if a != b || (a != "v0" && a != "won") {
				t.Fatalf("%s: torn commit: pages %q and %q", at, a, b)
			}
			if commitErr == nil && a != "won" {
				t.Fatalf("%s: acknowledged commit lost", at)
			}
			if err := e.Begin(9); err != nil {
				t.Fatal(err)
			}
			if err := e.Write(9, 1, []byte("post")); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(9); err != nil {
				t.Fatal(err)
			}
			if got := read(1); got != "post" {
				t.Fatalf("%s: a commit after recovery reads %q", at, got)
			}
			if !fired {
				break
			}
		}
		if k-1 != points[crashed] {
			t.Errorf("commit of txn %d had %d crash points, want %d", crashed, k-1, points[crashed])
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
