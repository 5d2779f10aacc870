package lockmgr

import (
	"testing"
	"time"
)

// transfer locks like one debit/credit transaction: read both pages, then
// write both (two S-to-X upgrades), then commit. Pages vary with txn, as
// they do in the benchmark's transfers over 1024 pages.
func transfer(m *Manager, txn TxnID) {
	a, b := PageID(txn%1024), PageID((txn*7+3)%1024)
	for _, l := range [...]struct {
		p    PageID
		mode Mode
	}{{a, Shared}, {b, Shared}, {a, Exclusive}, {b, Exclusive}} {
		if err := m.Lock(txn, l.p, l.mode); err != nil {
			panic(err)
		}
	}
	m.ReleaseAll(txn)
}

// auditPages is the size of the benchmark's live audit: one read-only
// transaction that share-locks every page.
const auditPages = 4096

// audit share-locks auditPages pages in one transaction, then commits.
func audit(m *Manager, txn TxnID) {
	for p := PageID(0); p < auditPages; p++ {
		if err := m.Lock(txn, p, Shared); err != nil {
			panic(err)
		}
	}
	m.ReleaseAll(txn)
}

var lockShapes = []struct {
	name  string
	run   func(*Manager, TxnID)
	locks int // Lock calls per run
}{
	{"transfer", transfer, 4},
	{"audit-4096", audit, auditPages},
}

// TestUncontendedLockingAllocatesNothing: once a manager has served one
// transaction of a shape, the next one of that shape reuses its page states
// and transaction record and allocates nothing.
func TestUncontendedLockingAllocatesNothing(t *testing.T) {
	for _, s := range lockShapes {
		t.Run(s.name, func(t *testing.T) {
			m := New()
			txn := TxnID(0)
			step := func() { txn++; s.run(m, txn) }
			step()
			if n := testing.AllocsPerRun(50, step); n != 0 {
				t.Errorf("%s allocates %.0f times per transaction, want 0", s.name, n)
			}
		})
	}
}

// TestLargeTransactionLocksInLinearTime: a lock costs about the same in a
// 4096-lock transaction as in a 4-lock one (1.0-2.2 times as much, best of
// five runs). A transaction record scanned on every Lock makes it 16-35
// times; the bound sits between the two.
func TestLargeTransactionLocksInLinearTime(t *testing.T) {
	perLock := func(run func(*Manager, TxnID), locks, reps int) time.Duration {
		m := New()
		run(m, 1)
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				run(m, TxnID(2+r*reps+i))
			}
			if d := time.Since(start) / time.Duration(reps*locks); d < best {
				best = d
			}
		}
		return best
	}
	tr, au := lockShapes[0], lockShapes[1]
	small := perLock(tr.run, tr.locks, 8*au.locks/tr.locks)
	big := perLock(au.run, au.locks, 8)
	if big > 6*small {
		t.Errorf("a lock costs %v in a %d-lock transaction, %v in a transfer", big, au.locks, small)
	}
}

// BenchmarkLockTransfer reports what the lock path costs per transaction:
// ns/op and allocs/op of one uncontended transfer, and of one live-audit
// transaction, which also reports ns per lock.
func BenchmarkLockTransfer(b *testing.B) {
	for _, s := range lockShapes {
		b.Run(s.name, func(b *testing.B) {
			m := New()
			s.run(m, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.run(m, TxnID(i+2))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.locks), "ns/lock")
		})
	}
}
