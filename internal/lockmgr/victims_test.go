package lockmgr

import (
	"errors"
	"testing"
	"time"
)

// waitForWaits polls until the manager has seen at least n lock waits; the
// scripted deadlock scenarios use it to pin down the wait graph before the
// closing request arrives.
func waitForWaits(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m.Waits() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wait graph never reached %d waits", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitingVictimEvicted pins the youngest-on-cycle rule when the victim
// is not the requester: the youngest transaction is already parked in a
// queue, and the cycle is closed by an older one. The parked Lock call must
// return ErrDeadlock while the older requester waits and is then granted.
func TestWaitingVictimEvicted(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 20, Exclusive); err != nil {
		t.Fatal(err)
	}
	// T2 (youngest) waits for p10 held by T1.
	victimErr := make(chan error, 1)
	go func() { victimErr <- m.Lock(2, 10, Exclusive) }()
	waitForWaits(t, m, 1)

	// T1 closes the cycle {1,2}. Victim is T2 — the parked waiter — so T1's
	// own request must block until T2 aborts, then be granted.
	granted := make(chan error, 1)
	go func() { granted <- m.Lock(1, 20, Exclusive) }()

	deadlocks := 0
	select {
	case err := <-victimErr:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("victim err = %v, want ErrDeadlock", err)
		}
		deadlocks++
	case <-time.After(5 * time.Second):
		t.Fatal("parked victim never received ErrDeadlock")
	}
	m.ReleaseAll(2) // the victim's caller aborts it

	select {
	case err := <-granted:
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		}
		if err != nil {
			t.Fatalf("survivor err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never granted after victim abort")
	}
	if !m.Holds(1, 20, Exclusive) {
		t.Fatal("survivor does not hold the contested lock")
	}
	if deadlocks != 1 {
		t.Fatalf("deadlocks = %d, want 1", deadlocks)
	}
}

// TestEvictedVictimBlocksUntilAborted covers the window between a victim's
// eviction and its abort. T1 holds p1, T2 holds p2 and parks on p1; T1's
// request for p2 evicts T2 and parks behind T2's lock. A request for p1
// that arrives before T2 aborts waits for T1, which waits for T2, which
// waits for no one: it parks and is no victim. T2's abort grants T1 p2,
// and T1's release grants the newcomer p1.
func TestEvictedVictimBlocksUntilAborted(t *testing.T) {
	m := New()
	mustLock(t, m, 1, 1, Exclusive)
	mustLock(t, m, 2, 2, Exclusive)
	t2 := goLock(m, 2, 1, Exclusive)
	waitForWaits(t, m, 1)
	t1 := goLock(m, 1, 2, Exclusive)
	if err := <-t2; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T2 err = %v, want ErrDeadlock", err)
	}
	waitForWaits(t, m, 2)

	// T3 parks, and is no victim: its Lock call is still out.
	t3 := goLock(m, 3, 1, Exclusive)
	waitForWaits(t, m, 3)
	select {
	case err := <-t3:
		t.Fatalf("T3 returned %v on parking, want it parked", err)
	default:
	}

	m.ReleaseAll(2) // T2's caller aborts it
	if err := <-t1; err != nil {
		t.Fatalf("T1 err = %v", err)
	}
	if !m.Holds(1, 2, Exclusive) {
		t.Fatal("T1 was not granted p2 when T2 aborted")
	}
	select {
	case err := <-t3:
		t.Fatalf("T3 returned %v while T1 still holds p1", err)
	default:
	}
	m.ReleaseAll(1)
	if err := <-t3; err != nil {
		t.Fatalf("T3 err = %v", err)
	}
	if !m.Holds(3, 1, Exclusive) {
		t.Fatal("T3 was not granted p1 when T1 committed")
	}
}

// runThreeCycle builds the same three-transaction cycle every time —
// T3 holds p3 and waits for p1, T2 holds p2 and waits for p3, then T1
// (holding p1) requests p2 — and returns the victim trace: the
// transactions whose Lock call returned ErrDeadlock. Each transaction is
// released as soon as its Lock call returns, so the survivors are granted
// one by one whichever transaction the cycle elected.
func runThreeCycle(t *testing.T) []TxnID {
	t.Helper()
	m := New()
	for i := int64(1); i <= 3; i++ {
		if err := m.Lock(TxnID(i), PageID(i), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		txn TxnID
		err error
	}
	results := make(chan result, 3)
	lock := func(txn TxnID, p PageID) {
		go func() { results <- result{txn, m.Lock(txn, p, Exclusive)} }()
	}
	lock(3, 1)
	waitForWaits(t, m, 1)
	lock(2, 3)
	waitForWaits(t, m, 2)

	// T1 closes the cycle {1,2,3}; the youngest (T3) must be the victim even
	// though it is parked two edges away from the detecting request.
	lock(1, 2)
	var victims []TxnID
	for range 3 {
		select {
		case r := <-results:
			if errors.Is(r.err, ErrDeadlock) {
				victims = append(victims, r.txn)
			} else if r.err != nil {
				t.Fatalf("T%d err = %v", r.txn, r.err)
			}
			m.ReleaseAll(r.txn)
		case <-time.After(5 * time.Second):
			t.Fatal("a Lock call never returned")
		}
	}
	return victims
}

// TestVictimTraceDeterministic is the regression test for ROADMAP open item
// 1: the same wait graph must elect the same victim on every run, no matter
// how goroutines interleave or maps iterate. Before the ordered-traversal
// fix, which transaction aborted differed run to run.
func TestVictimTraceDeterministic(t *testing.T) {
	first := runThreeCycle(t)
	if len(first) != 1 || first[0] != 3 {
		t.Fatalf("victims = %v, want [3] (youngest on cycle)", first)
	}
	for i := 0; i < 49; i++ {
		got := runThreeCycle(t)
		if len(got) != len(first) || got[0] != first[0] {
			t.Fatalf("run %d: victims = %v, first run had %v", i+2, got, first)
		}
	}
}
