package lockmgr

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReleaseAllScrubsQueuedWaiterWithError is the regression test for the
// spurious-success wakeup: a waiter parked in a page queue whose transaction
// has ReleaseAll run (the deadlock-victim race ReleaseAll's queue scrub
// exists for) must NOT see its Lock call return nil — the lock was never
// granted, and pre-fix the scrub closed the ready channel without setting
// an error, so the caller believed it held the lock.
func TestReleaseAllScrubsQueuedWaiterWithError(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Lock(2, 10, Exclusive) }()
	waitForWaits(t, m, 1)

	// Race ReleaseAll(2) against the parked Lock(2, ...): the scrub finds
	// txn 2 queued on page 10 and must wake it with an error.
	m.ReleaseAll(2)

	var err error
	select {
	case err = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("scrubbed waiter never woke")
	}
	if err == nil {
		t.Fatal("Lock reported success but the lock was never granted (spurious-success wakeup)")
	}
	if !errors.Is(err, ErrReleased) {
		t.Fatalf("Lock returned %v, want ErrReleased", err)
	}
	if m.Holds(2, 10, Shared) || m.Holds(2, 10, Exclusive) {
		t.Fatal("scrubbed waiter holds the lock it was never granted")
	}

	// The lock world must still be coherent: txn 1 still holds page 10,
	// releases it, and a third transaction acquires it cleanly.
	if !m.Holds(1, 10, Exclusive) {
		t.Fatal("holder lost its lock during the scrub")
	}
	m.ReleaseAll(1)
	if err := lockOrTimeout(t, m, 3, 10, Exclusive); err != nil {
		t.Fatalf("fresh transaction cannot lock after scrub: %v", err)
	}
}

// TestReleaseAllScrubWakesBlockedWaiters: scrubbing a queued waiter must
// re-run the wake pass so transactions queued behind the scrubbed entry are
// granted, not leaked.
func TestReleaseAllScrubWakesBlockedWaiters(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	// Txn 2 queues for X behind the S holder; txn 3 queues for S behind
	// txn 2 (FIFO: an S request behind a queued X must wait).
	got2 := make(chan error, 1)
	go func() { got2 <- m.Lock(2, 10, Exclusive) }()
	waitForWaits(t, m, 1)
	got3 := make(chan error, 1)
	go func() { got3 <- m.Lock(3, 10, Shared) }()
	waitForWaits(t, m, 2)

	// Scrubbing txn 2 out of the queue must grant txn 3's compatible S.
	m.ReleaseAll(2)
	if err := <-got2; !errors.Is(err, ErrReleased) {
		t.Fatalf("scrubbed waiter returned %v, want ErrReleased", err)
	}
	select {
	case err := <-got3:
		if err != nil {
			t.Fatalf("waiter behind scrubbed entry returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind scrubbed entry never granted")
	}
	if !m.Holds(3, 10, Shared) {
		t.Fatal("waiter behind scrubbed entry not granted")
	}
}

// TestStressLeavesNothingBehind: after a seeded concurrent stress with
// deadlocks, in which every victim is released and retried under a fresh
// TxnID, the lock table and the transaction records are empty, and so the
// waits-for graph read off them is too. Recycled page states and records
// must never carry a holder or a queue entry out of the transaction that
// owned it.
func TestStressLeavesNothingBehind(t *testing.T) {
	const workers, txnsPer, pages = 8, 150, 6
	m := New()
	var next atomic.Uint64
	var commits, deadlocks atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				for {
					txn := TxnID(next.Add(1))
					err := stressTxn(m, txn, rng, pages)
					m.ReleaseAll(txn)
					if err == nil {
						commits.Add(1)
						break
					}
					if !errors.Is(err, ErrDeadlock) {
						t.Errorf("txn %d: %v", txn, err)
						return
					}
					deadlocks.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := commits.Load(); got != workers*txnsPer {
		t.Fatalf("commits = %d, want %d", got, workers*txnsPer)
	}
	if deadlocks.Load() == 0 {
		t.Error("stress run saw no deadlocks")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.locks) != 0 || len(m.txns) != 0 {
		t.Fatalf("after release: %d page states, %d txn records; want none",
			len(m.locks), len(m.txns))
	}
}

// stressTxn locks three random pages, each either shared, exclusive, or
// shared then upgraded, yielding between requests so transactions overlap.
func stressTxn(m *Manager, txn TxnID, rng *rand.Rand, pages int) error {
	for k := 0; k < 3; k++ {
		p := PageID(rng.Intn(pages))
		modes := [][]Mode{{Shared}, {Exclusive}, {Shared, Exclusive}}[rng.Intn(3)]
		for _, mode := range modes {
			if err := m.Lock(txn, p, mode); err != nil {
				return err
			}
			runtime.Gosched()
		}
	}
	return nil
}

// TestParkedPageScrubbed: a transaction T holds pages 1, 5 and 9 and is
// parked on page 7, with waiters behind it on all four. Whether T leaves
// page 7's queue as a deadlock victim or because it is released while
// parked, its Lock call returns the matching error, and its release grants
// the four waiters in page order: the parked page takes its place in the
// walk over T's own pages.
func TestParkedPageScrubbed(t *testing.T) {
	const T, H = 10, 2 // H holds page 7 S; T is the youngest
	for _, tc := range []struct {
		name string
		// park puts T's request and page 7's waiter in place (waits 4 and
		// 5) and returns T's Lock result, the waiter and its Lock result.
		park    func(t *testing.T, m *Manager) (tGot <-chan error, w7 TxnID, w7Got <-chan error)
		wantErr error
	}{
		{"evicted as deadlock victim", func(t *testing.T, m *Manager) (<-chan error, TxnID, <-chan error) {
			// T also holds 7 S and asks to upgrade. H's own upgrade closes
			// the cycle {H, T}; T, parked, is evicted, and H parks in its
			// place, to be granted when T's S lock goes.
			mustLock(t, m, T, 7, Shared)
			got := goLock(m, T, 7, Exclusive)
			waitForWaits(t, m, 4)
			hGot := goLock(m, H, 7, Exclusive)
			tGot := make(chan error, 1)
			tGot <- <-got // T is evicted before H parks
			waitForWaits(t, m, 5)
			return tGot, H, hGot
		}, ErrDeadlock},
		{"released while parked", func(t *testing.T, m *Manager) (<-chan error, TxnID, <-chan error) {
			// T queues for X behind H's S; a reader queues behind T.
			got := goLock(m, T, 7, Exclusive)
			waitForWaits(t, m, 4)
			rGot := goLock(m, 6, 7, Shared)
			waitForWaits(t, m, 5)
			return got, 6, rGot
		}, ErrReleased},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			var grants []PageID
			m.onGrant = func(_ TxnID, p PageID) { grants = append(grants, p) }
			for _, p := range []PageID{1, 5, 9} {
				mustLock(t, m, T, p, Exclusive)
			}
			mustLock(t, m, H, 7, Shared)
			waiters := map[PageID]TxnID{1: 3, 5: 4, 9: 5}
			results := map[PageID]<-chan error{}
			for i, p := range []PageID{1, 5, 9} {
				results[p] = goLock(m, waiters[p], p, Exclusive)
				waitForWaits(t, m, int64(i+1))
			}
			tGot, w7, w7Got := tc.park(t, m)
			waiters[7], results[7] = w7, w7Got

			m.ReleaseAll(T)
			if err := <-tGot; !errors.Is(err, tc.wantErr) {
				t.Fatalf("T's Lock returned %v, want %v", err, tc.wantErr)
			}
			for _, p := range []PageID{1, 5, 7, 9} {
				if err := <-results[p]; err != nil {
					t.Fatalf("waiter on page %d: %v", p, err)
				}
			}
			// The next transaction reuses T's record, which must come back
			// clean: no page, no parked request.
			mustLock(t, m, 11, 20, Exclusive)
			m.ReleaseAll(11)
			m.mu.Lock()
			defer m.mu.Unlock()
			if want := []PageID{1, 5, 7, 9}; !slices.Equal(grants, want) {
				t.Fatalf("waiters granted on pages %v, want %v", grants, want)
			}
			for p, txn := range waiters {
				if _, ok := m.locks[p].mode(txn); !ok {
					t.Errorf("waiter %d does not hold page %d", txn, p)
				}
				if _, ok := m.locks[p].mode(T); ok || len(m.locks[p].queue) != 0 {
					t.Errorf("page %d: T still holds it or a queue is left", p)
				}
			}
			if m.txns[T] != nil {
				t.Error("T's record survived its release")
			}
		})
	}
}

func mustLock(t *testing.T, m *Manager, txn TxnID, p PageID, mode Mode) {
	t.Helper()
	if err := m.Lock(txn, p, mode); err != nil {
		t.Fatalf("Lock(%d, %d, %v): %v", txn, p, mode, err)
	}
}

// goLock runs Lock in a goroutine and returns its result channel.
func goLock(m *Manager, txn TxnID, p PageID, mode Mode) <-chan error {
	got := make(chan error, 1)
	go func() { got <- m.Lock(txn, p, mode) }()
	return got
}
