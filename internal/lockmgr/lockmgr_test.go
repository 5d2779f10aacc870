package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lockOrTimeout runs Lock in a goroutine and fails the test on hang.
func lockOrTimeout(t *testing.T, m *Manager, txn TxnID, p PageID, mode Mode) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Lock(txn, p, mode) }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("lock call hung")
		return nil
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, 10, Shared) || !m.Holds(2, 10, Shared) {
		t.Fatal("shared locks not held")
	}
}

func TestExclusiveBlocks(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := m.Lock(2, 10, Exclusive); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second X lock granted while first held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never granted after release")
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err) // sole holder upgrades immediately
	}
	if !m.Holds(1, 10, Exclusive) {
		t.Fatal("upgrade not recorded")
	}
	// X holder can re-request anything.
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 20, Exclusive); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error, 1)
	go func() { t1 <- m.Lock(1, 20, Exclusive) }() // T1 waits for T2
	time.Sleep(50 * time.Millisecond)
	// T2 -> T1 closes the cycle; T2 must be refused.
	err := lockOrTimeout(t, m, 2, 10, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2) // victim aborts; T1 proceeds
	err1 := <-t1
	if err1 != nil {
		t.Errorf("t1: %v", err1)
	}
	deadlocks := 0
	for _, err := range []error{err, err1} {
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		}
	}
	if deadlocks != 1 {
		t.Fatalf("deadlocks = %d", deadlocks)
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 2; i <= 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Lock(TxnID(i), 10, Exclusive); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.ReleaseAll(TxnID(i))
		}()
		time.Sleep(30 * time.Millisecond) // establish queue order
	}
	m.ReleaseAll(1)
	wg.Wait()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("grant order %v", order)
	}
}

func TestSharedWaitersGrantedTogether(t *testing.T) {
	m := New()
	if err := m.Lock(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	var granted int32
	var wg sync.WaitGroup
	for i := 2; i <= 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Lock(TxnID(i), 10, Shared); err != nil {
				t.Error(err)
				return
			}
			atomic.AddInt32(&granted, 1)
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if atomic.LoadInt32(&granted) != 0 {
		t.Fatal("shared locks granted while X held")
	}
	m.ReleaseAll(1)
	wg.Wait()
	if granted != 4 {
		t.Fatalf("granted = %d", granted)
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines locking random pages in ascending order (no
	// deadlocks possible); the counter under each page must never tear.
	m := New()
	const pages = 8
	counters := make([]int64, pages)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				txn := TxnID(g*1000 + i + 1)
				for p := 0; p < pages; p++ {
					if err := m.Lock(txn, PageID(p), Exclusive); err != nil {
						t.Error(err)
						return
					}
					counters[p]++ // data race iff locking is broken
					if i%10 == 0 && p == 0 {
						time.Sleep(time.Microsecond) // force overlap
					}
				}
				m.ReleaseAll(txn)
			}
		}()
	}
	close(start)
	wg.Wait()
	for p, c := range counters {
		if c != 16*50 {
			t.Fatalf("page %d counter = %d, want %d", p, c, 16*50)
		}
	}
	if m.Waits() == 0 {
		t.Error("stress run saw no lock waits")
	}
}

func TestTxnZeroRejected(t *testing.T) {
	m := New()
	if err := m.Lock(0, 1, Shared); err == nil {
		t.Fatal("TxnID 0 accepted")
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode names wrong")
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// The classic conversion deadlock: two shared holders both request the
	// upgrade to exclusive. One must be refused as the victim.
	m := New()
	if err := m.Lock(1, 10, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, 10, Shared); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- m.Lock(1, 10, Exclusive) }()
	time.Sleep(50 * time.Millisecond) // T1 is now waiting on T2
	err2 := lockOrTimeout(t, m, 2, 10, Exclusive)
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("second upgrader: %v, want ErrDeadlock", err2)
	}
	m.ReleaseAll(2) // victim aborts; T1's upgrade proceeds
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("first upgrader: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first upgrader never granted")
	}
	if !m.Holds(1, 10, Exclusive) {
		t.Fatal("upgrade not recorded")
	}
}
