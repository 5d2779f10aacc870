package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
	"repro/internal/wal"
)

// forceWindow is the fault hook of one group-commit scenario, installed on
// the data and the log store. It holds the first log write, the leader's,
// until release is closed, and logs every mutation as "store:page" in the
// order the stores make them. From the cut-th mutation on the power is
// off: that operation and every later one fails, reads included. With
// stolen set, the write of log chunk 1 waits until it is closed.
type forceWindow struct {
	blocked, release chan struct{}
	stolen           chan struct{}

	mu        sync.Mutex
	held      bool // the first log write has come
	mutations []string
	cut       int64 // 0: the power stays on
	down      bool
}

func (w *forceWindow) hook(store string) pagestore.FaultHook {
	return func(op pagestore.Op, id pagestore.PageID, _ int64) bool {
		w.mu.Lock()
		first := store == "log" && op == pagestore.OpWrite && !w.held
		w.held = w.held || first
		w.mu.Unlock()
		if first {
			close(w.blocked)
			<-w.release
		}
		if store == "log" && op == pagestore.OpWrite && id == 1 && w.stolen != nil {
			<-w.stolen
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.down || op == pagestore.OpRead {
			return w.down
		}
		w.mutations = append(w.mutations, fmt.Sprintf("%s:%d", store, id))
		w.down = int64(len(w.mutations)) == w.cut
		return w.down
	}
}

// groupOutcome is what one run of the scenario returned to its sessions.
type groupOutcome struct {
	commit    [3]error // sessions A, B and C
	steal     error    // session D's read, which steals A's page
	mutations []string
}

// groupPages are the pages sessions A, B and C write, and the page D
// reads, which evicts A's.
var groupPages = [4]int64{1, 2, 3, 9}

// runGroupCommit runs the group-commit scenario on wal-1stream over memory
// stores, with the power cut at the window's cut-th mutation (0: never).
// A, B and C each write a page, filling the 3-page pool; A commits, and
// its force's one chunk write is held. While it is held, B and C commit
// and wait for the next force, and D reads a page that evicts A's, whose
// LSN the held chunk covers. Then the write is released. D writes the
// stolen page outside the Guard's mutex, beside the next force, so the
// force's chunk write waits for D's read to return, which pins their
// order. With the power on, each session checks the moment its Commit
// returns that its chunk is in the log store. After the run the power
// comes back, the engine crashes and recovers, and every commit
// acknowledged must be present.
func runGroupCommit(t *testing.T, cut int64) groupOutcome {
	t.Helper()
	data, log := pagestore.New(4096), pagestore.New(wal.LogChunkSize)
	e, _ := NewWALOn(data, wal.Config{LogStore: log, PoolPages: 3})
	for p := int64(0); p < 10; p++ {
		if err := e.Load(p, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	w := &forceWindow{blocked: make(chan struct{}), release: make(chan struct{}), stolen: make(chan struct{}), cut: cut}
	data.SetFaultHook(w.hook("data"))
	log.SetFaultHook(w.hook("log"))

	var txns [4]*Txn
	for i := range txns {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txns[i] = tx
		if i < 3 {
			if err := tx.Write(groupPages[i], []byte(fmt.Sprintf("new%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out groupOutcome
	var wg sync.WaitGroup
	commit := func(i int, chunk pagestore.PageID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.commit[i] = txns[i].Commit()
			if out.commit[i] == nil && cut == 0 {
				if ok, err := log.Exists(chunk); !ok || err != nil {
					t.Errorf("session %c's Commit returned before log chunk %d was written (%v)", 'A'+i, chunk, err)
				}
			}
		}()
	}
	// records polls the kernel's appended log records under the Guard: a
	// commit that appended its record has released the mutex to wait.
	records := func(want int64) {
		for e.Guard().Stats()["stream0.records"] < want {
			runtime.Gosched()
		}
	}

	commit(0, 0)
	<-w.blocked
	commit(1, 1) // A's updates, B's and C's, then A's commit: 4 records before
	records(5)
	commit(2, 1)
	records(6)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, out.steal = txns[3].Read(groupPages[3])
		close(w.stolen)
	}()
	// D holds the mutex only while its steal waits for the held log write.
	for e.Guard().mu.TryLock() {
		e.Guard().mu.Unlock()
		runtime.Gosched()
	}
	close(w.release)
	wg.Wait()
	_ = txns[3].Abort()

	data.SetFaultHook(nil)
	log.SetFaultHook(nil)
	out.mutations = w.mutations
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatalf("cut %d: recover: %v", cut, err)
	}
	for i, err := range out.commit {
		got, rerr := e.ReadCommitted(groupPages[i])
		if rerr != nil {
			t.Fatal(rerr)
		}
		want := fmt.Sprintf("new%d", i)
		switch {
		case err == nil && string(got) != want:
			t.Errorf("cut %d: session %c's commit was acknowledged, but page %d recovered as %q", cut, 'A'+i, groupPages[i], got)
		case err != nil && string(got) != want && string(got) != "old":
			t.Errorf("cut %d: session %c's page %d recovered as %q", cut, 'A'+i, groupPages[i], got)
		}
	}
	return out
}

// TestGroupCommitSharesTheForce pins the group commit of the Guard's WAL
// path, and its failures. Three commits cost two chunk writes: A's force
// writes chunk 0, and one force writes chunk 1 for B and C, which
// committed while A's was in flight. D's steal needs A's commit record,
// sealed in the held chunk, so it writes chunk 0 itself, with the same
// bytes, before the page. Then the power is cut at each of those four
// writes in turn. A failed force fails every commit it covers, and the
// chunk it did not write is forced again by the next, so no commit is
// acknowledged through a force that wrote nothing.
func TestGroupCommitSharesTheForce(t *testing.T) {
	clean := runGroupCommit(t, 0)
	window := []string{"log:0", "log:0", "data:1", "log:1"}
	if !reflect.DeepEqual(clean.mutations, window) {
		t.Fatalf("the stores' mutations were %v, want %v", clean.mutations, window)
	}
	if clean.commit != [3]error{} || clean.steal != nil {
		t.Fatalf("with the power on: commits %v, steal %v", clean.commit, clean.steal)
	}

	// acked[k-1] lists the sessions acknowledged with the power cut at
	// mutation k, and stole whether D's read succeeded.
	for k, want := range []struct {
		acked string
		stole bool
	}{
		{"", false},  // A's write: every force fails, and the steal
		{"A", false}, // the steal's rewrite of chunk 0
		{"A", false}, // the steal's page
		{"A", true},  // B's and C's force: both fail
	} {
		t.Run(fmt.Sprintf("cut%d", k+1), func(t *testing.T) {
			out := runGroupCommit(t, int64(k+1))
			if got := out.mutations; !reflect.DeepEqual(got, window[:k+1]) {
				t.Errorf("mutations %v, want %v", got, window[:k+1])
			}
			acked := ""
			for i, err := range out.commit {
				if err == nil {
					acked += string(rune('A' + i))
					continue
				}
				if !errors.Is(err, pagestore.ErrCrashed) || !strings.Contains(err.Error(), "in doubt") {
					t.Errorf("session %c's commit failed with %v, not in doubt after the power cut", 'A'+i, err)
				}
			}
			if acked != want.acked {
				t.Errorf("acknowledged %q, want %q", acked, want.acked)
			}
			if (out.steal == nil) != want.stole {
				t.Errorf("D's read returned %v", out.steal)
			}
		})
	}
}

// TestGroupCommitCrashWaits crashes the Guard while one commit's force is
// held and a second commit waits for the next force. The crash must wait
// for both forces, so each commit that returned nil is recovered: a crash
// that took the second commit's record while it waited would leave it to
// settle a force with nothing to write, and report success. Which of the
// crash and the second force takes the mutex first is up to the
// scheduler, so the run is repeated.
func TestGroupCommitCrashWaits(t *testing.T) {
	for run := 0; run < 20; run++ {
		data, log := pagestore.New(4096), pagestore.New(wal.LogChunkSize)
		e, _ := NewWALOn(data, wal.Config{LogStore: log})
		var txns [2]*Txn
		for i := range txns {
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(int64(i), []byte("new")); err != nil {
				t.Fatal(err)
			}
			txns[i] = tx
		}
		w := &forceWindow{blocked: make(chan struct{}), release: make(chan struct{})}
		log.SetFaultHook(w.hook("log"))
		errs := make(chan error, 2)
		go func() { errs <- txns[0].Commit() }()
		<-w.blocked
		go func() { errs <- txns[1].Commit() }()
		for e.Guard().Stats()["stream0.records"] < 4 { // two updates, two commits
			runtime.Gosched()
		}
		crashed := make(chan struct{})
		go func() {
			e.Guard().Crash()
			close(crashed)
		}()
		time.Sleep(time.Millisecond) // most runs: the crash waits before the release
		close(w.release)
		<-crashed
		for range txns {
			if err := <-errs; err != nil {
				t.Fatalf("run %d: commit failed with the power on: %v", run, err)
			}
		}
		if err := e.Guard().Recover(); err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < 2; p++ {
			if got, err := e.ReadCommitted(p); err != nil || string(got) != "new" {
				t.Fatalf("run %d: page %d recovered as %q (%v), but its commit returned nil", run, p, got, err)
			}
		}
	}
}

// TestGroupCommitLogWrites reports what group commit saves on the real
// path, and what leaves the Guard's mutex: log-store writes per commit, and
// data-store writes made outside the mutex per commit, when four sessions
// run 500 transfers each through the Guard on file stores (wal-1stream,
// 1,024 pages, a 64-page pool). One session writes one chunk per commit;
// four share forces, when commits queue for one. Every run-time steal is
// written outside the mutex. The counts depend on the interleaving, so
// they are reported, not pinned.
func TestGroupCommitLogWrites(t *testing.T) {
	const sessions, txns, pages = 4, 500, 1024
	dir := t.TempDir()
	var stores []*pagestore.Store
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	for _, role := range []struct {
		name     string
		pageSize int
	}{{"data", 4096}, {"log", wal.LogChunkSize}} {
		s, err := filestore.Open(filepath.Join(dir, role.name), role.pageSize)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
	}
	k := &stealProbe{Manager: wal.NewManager(stores[0], wal.Config{LogStore: stores[1], PoolPages: 64})}
	e := New(k)
	bal := make([]byte, 8)
	binary.BigEndian.PutUint64(bal, 1000)
	for p := int64(0); p < pages; p++ {
		if err := e.Load(p, bal); err != nil {
			t.Fatal(err)
		}
	}
	_, before := stores[1].Stats()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1985 + s)))
			for i := 0; i < txns && errs[s] == nil; i++ {
				a := int64(rng.Intn(pages))
				b := (a + 1 + int64(rng.Intn(pages-1))) % pages
				errs[s] = e.Update(func(tx *Txn) error { return transferOnce(tx, a, b) })
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}
	commits, _, _ := e.Stats()
	_, after := stores[1].Stats()
	t.Logf("wal-1stream, %d sessions: %.3f log writes and %.3f data-store writes outside the Guard's mutex per commit (%d commits)",
		sessions, float64(after-before)/float64(commits), float64(k.outside)/float64(commits), commits)
}

// transferOnce moves one unit from page a to page b.
func transferOnce(tx *Txn, a, b int64) error {
	x, err := tx.Read(a)
	if err != nil {
		return err
	}
	y, err := tx.Read(b)
	if err != nil {
		return err
	}
	from, to := make([]byte, 8), make([]byte, 8)
	binary.BigEndian.PutUint64(from, binary.BigEndian.Uint64(x)-1)
	binary.BigEndian.PutUint64(to, binary.BigEndian.Uint64(y)+1)
	if err := tx.Write(a, from); err != nil {
		return err
	}
	return tx.Write(b, to)
}
