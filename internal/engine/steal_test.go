package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/live"
	"repro/internal/pagestore"
	"repro/internal/wal"
)

// stealProbe is the WAL kernel with two probes the Guard cannot tell from
// it: it counts the steals the Guard writes outside its mutex (the kernel's
// own inline writes settle without passing here), and, with waits set,
// signals each Read that must wait for such a write.
type stealProbe struct {
	*wal.Manager
	outside int64 // under the Guard's mutex
	waits   chan struct{}
}

func (k *stealProbe) Settle(b *wal.Batch, err error) {
	before := k.Manager.Stats()["steals"]
	k.Manager.Settle(b, err)
	k.outside += k.Manager.Stats()["steals"] - before
}

func (k *stealProbe) Read(tid uint64, p int64) ([]byte, error) {
	data, err := k.Manager.Read(tid, p)
	if errors.Is(err, wal.ErrStealWait) && k.waits != nil {
		k.waits <- struct{}{}
	}
	return data, err
}

// stealWindow is the fault hook of the steal scenario, on the data and the
// log store. It holds the first data-store write, the steal's, until
// release is closed, and from that write on logs every store operation as
// "store:op:page" in the order the stores make them. From the cut-th
// operation on the power is off: that operation and every later one fails.
type stealWindow struct {
	blocked, release chan struct{}

	mu   sync.Mutex
	held bool // the steal's write has come
	ops  []string
	cut  int // 0: the power stays on
	down bool
}

func (w *stealWindow) hook(store string) pagestore.FaultHook {
	return func(op pagestore.Op, id pagestore.PageID, _ int64) bool {
		w.mu.Lock()
		first := store == "data" && op == pagestore.OpWrite && !w.held
		w.held = w.held || first
		w.mu.Unlock()
		if first {
			close(w.blocked)
			<-w.release
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.held && !w.down {
			w.ops = append(w.ops, fmt.Sprintf("%s:%s:%d", store, op, id))
			w.down = len(w.ops) == w.cut
		}
		return w.down
	}
}

// stealOutcome is what one run of the scenario returned to its sessions.
type stealOutcome struct {
	commitB, commitC error
	readD, readF     error
	ops              []string
}

// runStealWindow runs the steal scenario on wal-1stream over memory stores,
// with a 3-page pool and the power cut at the window's cut-th store
// operation (0: never). A commits page 1, B writes page 2 and C page 3,
// filling the pool. Then D reads page 4, which steals A's page 1, and the
// steal's write is held. While it is held: B commits, its log force
// written; another session reads page 4, which D's read pooled; E reads
// page 1, served from the steal's copy, which steals B's page 2 in turn,
// queued behind the held write; and F reads page 5, which must read the
// data store, so it waits, with the Guard's mutex free. With the power on, each of those returns
// (or, F, does not) before the write is released, with what it must. Once
// it is, F's read steals C's page 3, an update of a transaction still
// open, so it forces the log through an undo record first. Then C
// commits. After the run the power comes back, the engine crashes and
// recovers, and every commit acknowledged must be present.
func runStealWindow(t *testing.T, cut int) stealOutcome {
	t.Helper()
	data, log := pagestore.New(4096), pagestore.New(wal.LogChunkSize)
	k := &stealProbe{Manager: wal.NewManager(data, wal.Config{LogStore: log, PoolPages: 3}), waits: make(chan struct{}, 8)}
	e := New(k)
	for p := int64(0); p < 10; p++ {
		if err := e.Load(p, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	write := func(p int64, v string) *Txn {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(p, []byte(v)); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	if err := write(1, "a1").Commit(); err != nil {
		t.Fatal(err)
	}
	txB, txC := write(2, "b2"), write(3, "c3")
	read := func(p int64) ([]byte, error) {
		tx, err := e.Begin()
		if err != nil {
			return nil, err
		}
		defer tx.Abort()
		return tx.Read(p)
	}

	var out stealOutcome
	w := &stealWindow{blocked: make(chan struct{}), release: make(chan struct{}), cut: cut}
	data.SetFaultHook(w.hook("data"))
	log.SetFaultHook(w.hook("log"))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, out.readD = read(4)
	}()
	<-w.blocked
	out.commitB = txB.Commit()
	got, err := read(4)
	if cut == 0 && (err != nil || string(got) != "old") {
		t.Errorf("the read of page 4, pooled, during the steal write: %q, %v", got, err)
	}
	got, err = read(1)
	if cut == 0 && (err != nil || string(got) != "a1") {
		t.Errorf("E's read of page 1, being written, returned %q, %v, not the steal's copy", got, err)
	}
	fDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(fDone)
		_, out.readF = read(5)
	}()
	<-k.waits
	for !e.Guard().mu.TryLock() { // F waits with the mutex released
		runtime.Gosched()
	}
	e.Guard().mu.Unlock()
	select {
	case <-fDone:
		t.Error("F's read of page 5 returned while the steal write was held")
	default:
	}
	close(w.release)
	wg.Wait()
	out.commitC = txC.Commit()

	data.SetFaultHook(nil)
	log.SetFaultHook(nil)
	out.ops = w.ops
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatalf("cut %d: recover: %v", cut, err)
	}
	for _, c := range []struct {
		page int64
		want string
		err  error
	}{{1, "a1", nil}, {2, "b2", out.commitB}, {3, "c3", out.commitC}} {
		got, err := e.ReadCommitted(c.page)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case c.err == nil && string(got) != c.want:
			t.Errorf("cut %d: page %d's commit was acknowledged, but it recovered as %q", cut, c.page, got)
		case c.err != nil && string(got) != c.want && string(got) != "old":
			t.Errorf("cut %d: page %d recovered as %q", cut, c.page, got)
		}
	}
	return out
}

// TestStealWriteLeavesTheGuard pins the steal write outside the Guard's
// mutex, and its failures. While the write of A's page 1 is held, B's
// commit forces the log, pooled and stolen pages are read, and a read that
// must fetch waits with the mutex free (see runStealWindow). The window's
// store operations from the held write on: B's log chunk, the held page 1,
// page 2, which E's read stole while it was held and the same writer
// writes next, F's read of page 5, the log chunk with C's undo record,
// page 3, and C's log chunk. Then the power is
// cut at each of them in turn. A steal write that fails fails the read
// that wrote it, and every read that must fetch after it; every commit
// acknowledged survives.
func TestStealWriteLeavesTheGuard(t *testing.T) {
	clean := runStealWindow(t, 0)
	window := []string{"log:write:1", "data:write:1", "data:write:2", "data:read:5", "log:write:2", "data:write:3", "log:write:3"}
	if !reflect.DeepEqual(clean.ops, window) {
		t.Fatalf("the stores' operations were %v, want %v", clean.ops, window)
	}
	if got := clean.succeeded(t); got != "B D F C" {
		t.Fatalf("with the power on, only %q succeeded: %+v", got, clean)
	}

	// ok[k-1] lists what succeeded with the power cut at operation k.
	for k, ok := range []string{
		"",      // B's force: B in doubt, E's steal cannot force the log
		"B",     // the held write of page 1: its reader D fails, F too
		"B",     // page 2's write, in D's batch: D fails
		"B D",   // F's read
		"B D",   // F's steal: the undo record's force
		"B D",   // F's steal: page 3
		"B D F", // C's commit
	} {
		t.Run(fmt.Sprintf("cut%d", k+1), func(t *testing.T) {
			out := runStealWindow(t, k+1)
			if got := out.ops; !reflect.DeepEqual(got, window[:k+1]) {
				t.Errorf("operations %v, want %v", got, window[:k+1])
			}
			if got := out.succeeded(t); got != ok {
				t.Errorf("succeeded: %q, want %q", got, ok)
			}
		})
	}
}

// succeeded lists which of B's commit, D's read, F's read and C's commit
// returned nil, and checks that the others failed with the power cut.
func (o stealOutcome) succeeded(t *testing.T) string {
	var ok []string
	for _, r := range []struct {
		name string
		err  error
	}{{"B", o.commitB}, {"D", o.readD}, {"F", o.readF}, {"C", o.commitC}} {
		if r.err == nil {
			ok = append(ok, r.name)
		} else if !errors.Is(r.err, pagestore.ErrCrashed) {
			t.Errorf("%s failed with %v, not the power cut", r.name, r.err)
		}
	}
	return strings.Join(ok, " ")
}

// TestStealWriteHoldsOffMaintenance: a checkpoint that arrives while a
// steal's write is held waits for it, with the mutex released, and then
// finds the page in the data store.
func TestStealWriteHoldsOffMaintenance(t *testing.T) {
	data := pagestore.New(4096)
	e := New(wal.NewManager(data, wal.Config{PoolPages: 1}))
	gm := live.NewGuardMetrics(live.Wall())
	e.Guard().SetMetrics(gm)
	if err := e.Update(func(tx *Txn) error { return tx.Write(1, []byte("t")) }); err != nil {
		t.Fatal(err)
	}
	blocked, release := make(chan struct{}), make(chan struct{})
	held := false // the store calls the hook under its mutex
	data.SetFaultHook(func(op pagestore.Op, _ pagestore.PageID, _ int64) bool {
		if op == pagestore.OpWrite && !held {
			held = true
			close(blocked)
			<-release
		}
		return false
	})
	read := make(chan error, 1)
	go func() { read <- e.Update(func(tx *Txn) error { _, err := tx.Read(2); return err }) }()
	<-blocked
	checkpoint := make(chan error, 1)
	go func() { checkpoint <- e.Guard().Checkpoint() }()
	for gm.Wait(live.GuardCheckpoint).Count() == 0 || !e.Guard().mu.TryLock() {
		runtime.Gosched()
	}
	e.Guard().mu.Unlock()
	select {
	case err := <-checkpoint:
		t.Fatalf("the checkpoint returned (%v) while the steal write was held", err)
	default:
	}
	close(release)
	if err := errors.Join(<-read, <-checkpoint); err != nil {
		t.Fatal(err)
	}
	data.SetFaultHook(nil)
	if got, _, err := data.Read(1); err != nil || string(got) != "t" {
		t.Fatalf("page 1 in the data store after the checkpoint: %q, %v", got, err)
	}
}
