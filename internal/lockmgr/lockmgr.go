// Package lockmgr is a page-level two-phase-locking lock manager for the
// functional recovery engines: shared/exclusive modes, lock upgrades, FIFO
// queuing, and waits-for-graph deadlock detection. It plays the role the
// back-end controller's scheduler plays in the paper's database machine.
//
// Bookkeeping: each locked page has a lock state (its exclusive holder, its
// shared holders in a small slice, its FIFO queue), and each transaction has
// one record of the pages it was granted, in grant order, and of the one
// request it is parked on, if any. Releasing a transaction therefore costs
// O(locks it holds), never O(locked pages): it visits its own pages and the
// page it is parked on, and no other. Freed page states and transaction
// records are recycled, so locking without contention allocates nothing once
// the manager is warm.
//
// Deadlock-victim rule: when a lock request would close a cycle in the
// waits-for graph, the victim is the youngest transaction on that cycle —
// the one with the highest TxnID, which (TxnIDs being allocated in Begin
// order) has done the least work. The rule is a pure function of the cycle's
// membership, computed by depth-first search over sorted adjacency lists, so
// which transaction aborts never depends on map iteration order or on which
// request happened to detect the cycle: same wait graph, same victim, every
// run. The chosen victim's Lock call returns ErrDeadlock — whether it is the
// requester that closed the cycle or a transaction already parked in a
// queue — and the caller must abort it (ReleaseAll) to unblock the rest.
package lockmgr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// TxnID identifies a transaction; 0 is reserved.
type TxnID uint64

// PageID identifies a lockable page.
type PageID int64

// Mode is a lock mode.
type Mode int

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits one writer.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// ErrDeadlock is returned to the transaction chosen as the deadlock victim;
// the caller must abort it.
var ErrDeadlock = errors.New("lockmgr: deadlock detected; abort this transaction")

// ErrReleased is returned by a Lock call that was still queued when
// ReleaseAll ran for the same transaction: the lock was never granted, and
// the transaction's locks are gone. Only a caller that races Lock against
// its own commit/abort can observe it; the error exists so that race can
// never be mistaken for a successful grant.
var ErrReleased = errors.New("lockmgr: transaction released while waiting; lock not granted")

type waiter struct {
	txn   TxnID
	mode  Mode
	ready chan struct{}
	// err is set (before ready is closed) when the waiter was chosen as a
	// deadlock victim instead of being granted.
	err error
}

// lockState is one page's lock: at most one exclusive holder, or any number
// of shared holders, never both. A transaction is in at most one of the two.
// Holder sets are small (a few concurrent readers), so a slice beats a map.
type lockState struct {
	sHolders []TxnID
	xHolder  TxnID
	queue    []*waiter
}

// mode reports the mode txn holds the page in, if any.
func (ls *lockState) mode(txn TxnID) (Mode, bool) {
	if ls.xHolder == txn {
		return Exclusive, true
	}
	if slices.Contains(ls.sHolders, txn) {
		return Shared, true
	}
	return Shared, false
}

// drop removes txn from the page's holders, if it is one.
func (ls *lockState) drop(txn TxnID) {
	if ls.xHolder == txn {
		ls.xHolder = 0
	}
	if i := slices.Index(ls.sHolders, txn); i >= 0 {
		ls.sHolders = slices.Delete(ls.sHolders, i, i+1)
	}
}

// unqueue removes w from the page's queue and wakes its Lock call with err.
func (ls *lockState) unqueue(w *waiter, err error) {
	i := slices.Index(ls.queue, w)
	ls.queue = slices.Delete(ls.queue, i, i+1)
	w.err = err
	close(w.ready)
}

// txnLocks is one transaction's record: the pages it was granted, in grant
// order, and the request it is parked on, if any. A transaction has at most
// one Lock call in flight, so it is parked on at most one page.
type txnLocks struct {
	pages    []PageID
	wait     *waiter // nil unless parked in waitPage's queue
	waitPage PageID
}

// freeList recycles the manager's records; it never holds more than the
// lock table's peak size.
type freeList[T any] []*T

func (f *freeList[T]) get() *T {
	n := len(*f)
	if n == 0 {
		return new(T)
	}
	x := (*f)[n-1]
	*f = (*f)[:n-1]
	return x
}

func (f *freeList[T]) put(x *T) { *f = append(*f, x) }

// Manager is the lock manager. Create with New; safe for concurrent use.
type Manager struct {
	mu    sync.Mutex
	locks map[PageID]*lockState
	txns  map[TxnID]*txnLocks
	// waitsOn[t] is the set of transactions t currently waits for.
	waitsOn map[TxnID]map[TxnID]bool

	freeLocks freeList[lockState]
	freeTxns  freeList[txnLocks]

	waits     int64
	deadlocks int64
	victims   []TxnID // deadlock victims in detection order

	// onGrant, when set (by tests, before any Lock), sees every parked
	// request as it is granted, under mu, in grant order.
	onGrant func(TxnID, PageID)
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:   make(map[PageID]*lockState),
		txns:    make(map[TxnID]*txnLocks),
		waitsOn: make(map[TxnID]map[TxnID]bool),
	}
}

// Lock acquires page p in mode for txn, blocking until granted. When
// waiting would close a cycle in the waits-for graph, the youngest
// transaction on that cycle (highest TxnID) is chosen as the victim and its
// Lock call returns ErrDeadlock — that may be this call, or a call already
// parked in a queue. The victim's caller must abort it (release its locks)
// to unblock the others. A transaction must not have two Lock calls in
// flight at once.
func (m *Manager) Lock(txn TxnID, p PageID, mode Mode) error {
	if txn == 0 {
		return fmt.Errorf("lockmgr: TxnID 0 is reserved")
	}
	m.mu.Lock()
	ls := m.lockState(p)

	// Re-entrant and upgrade cases.
	if cur, ok := ls.mode(txn); ok {
		if cur == Exclusive || mode == Shared {
			m.mu.Unlock()
			return nil
		}
		// Upgrade S -> X: compatible once txn is the only holder.
		if len(ls.sHolders) == 1 {
			ls.xHolder = txn
			ls.sHolders = ls.sHolders[:0]
			m.mu.Unlock()
			return nil
		}
	}

	for {
		if ls.compatible(txn, mode) && len(ls.queue) == 0 {
			m.grant(ls, txn, p, mode)
			m.mu.Unlock()
			return nil
		}

		// Must wait: adding the edges txn -> blockers may close a cycle.
		blockers := m.blockers(ls, txn)
		cycle := m.cycle(txn, blockers)
		if len(cycle) == 0 {
			edges := m.waitsOn[txn]
			if edges == nil {
				edges = make(map[TxnID]bool)
				m.waitsOn[txn] = edges
			}
			for b := range blockers {
				edges[b] = true
			}
			w := &waiter{txn: txn, mode: mode, ready: make(chan struct{})}
			ls.queue = append(ls.queue, w)
			rec := m.txnRecord(txn)
			rec.wait, rec.waitPage = w, p
			m.waits++
			m.mu.Unlock()

			<-w.ready
			return w.err
		}

		// Deadlock. The victim is the youngest (highest TxnID) transaction
		// on the cycle — a rule that depends only on the cycle's membership,
		// never on which request detected it.
		victim := cycle[len(cycle)-1] // cycle is sorted ascending
		m.deadlocks++
		m.victims = append(m.victims, victim)
		if victim == txn {
			m.mu.Unlock()
			return ErrDeadlock
		}
		// The victim is parked in some queue. Hand it ErrDeadlock and retry:
		// removing its wait edges breaks this cycle, though its held locks
		// still block us until its caller aborts it. evict removes only a
		// queue entry, and p has holders (a queue never outlives them), so
		// ls stays in the table.
		m.evict(victim)
	}
}

// evict hands ErrDeadlock to a parked victim: its queue entry is removed
// (waking any waiters it blocked), its outgoing wait edges disappear, and
// its blocked Lock call returns the error. Its held locks stay put until the
// caller-side abort runs ReleaseAll. A transaction with wait edges is
// parked, so the victim is, and evict touches only the page it is parked on.
// Callers hold m.mu.
func (m *Manager) evict(victim TxnID) {
	delete(m.waitsOn, victim)
	rec := m.txns[victim]
	p := rec.waitPage
	ls := m.locks[p]
	ls.unqueue(rec.wait, ErrDeadlock)
	rec.wait = nil
	m.wake(ls, p)
	m.cleanup(p, ls)
}

// blockers returns every transaction that currently prevents txn from being
// granted on ls: the incompatible holders plus all queued waiters ahead.
func (m *Manager) blockers(ls *lockState, txn TxnID) map[TxnID]bool {
	out := make(map[TxnID]bool)
	if ls.xHolder != 0 && ls.xHolder != txn {
		out[ls.xHolder] = true
	}
	for _, t := range ls.sHolders {
		if t != txn {
			out[t] = true
		}
	}
	for _, w := range ls.queue {
		if w.txn != txn {
			out[w.txn] = true
		}
	}
	return out
}

// cycle reports the transactions on the waits-for cycle(s) that adding the
// edges txn -> blockers would close, in ascending TxnID order (txn itself
// included); it returns nil when no cycle would form. Adjacency is traversed
// in sorted order, so the result — and therefore the victim choice — is
// independent of map iteration order.
func (m *Manager) cycle(txn TxnID, blockers map[TxnID]bool) []TxnID {
	// reaches memoizes whether txn is reachable from a node along existing
	// edges. The existing graph is acyclic (cycles are refused at creation),
	// so the provisional "no" entry only guards against repeated work.
	memo := map[TxnID]int{} // 0 unknown, 1 reaches txn, 2 does not
	var reaches func(t TxnID) bool
	reaches = func(t TxnID) bool {
		if t == txn {
			return true
		}
		switch memo[t] {
		case 1:
			return true
		case 2:
			return false
		}
		memo[t] = 2
		for _, next := range sortedIDs(m.waitsOn[t]) {
			if reaches(next) {
				memo[t] = 1
				return true
			}
		}
		return false
	}
	// A node is on a new cycle exactly when it lies on a path from some
	// blocker back to txn: reachable from a blocker through nodes that all
	// reach txn, and reaching txn itself.
	onCycle := map[TxnID]bool{}
	var mark func(t TxnID)
	mark = func(t TxnID) {
		if t == txn || onCycle[t] || !reaches(t) {
			return
		}
		onCycle[t] = true
		for _, next := range sortedIDs(m.waitsOn[t]) {
			mark(next)
		}
	}
	for _, b := range sortedIDs(blockers) {
		mark(b)
	}
	if len(onCycle) == 0 {
		return nil
	}
	onCycle[txn] = true
	return sortedIDs(onCycle)
}

// sortedIDs returns the set's members in ascending order.
func sortedIDs(set map[TxnID]bool) []TxnID {
	out := make([]TxnID, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lockState returns p's lock state, adding a recycled one if p has none.
func (m *Manager) lockState(p PageID) *lockState {
	ls := m.locks[p]
	if ls == nil {
		ls = m.freeLocks.get()
		m.locks[p] = ls
	}
	return ls
}

// txnRecord returns txn's record, adding a recycled one if txn has none.
func (m *Manager) txnRecord(txn TxnID) *txnLocks {
	rec := m.txns[txn]
	if rec == nil {
		rec = m.freeTxns.get()
		m.txns[txn] = rec
	}
	return rec
}

func (ls *lockState) compatible(txn TxnID, mode Mode) bool {
	if ls.xHolder != 0 && ls.xHolder != txn {
		return false
	}
	if mode == Exclusive {
		for _, t := range ls.sHolders {
			if t != txn {
				return false
			}
		}
	}
	return true
}

func (m *Manager) grant(ls *lockState, txn TxnID, p PageID, mode Mode) {
	_, held := ls.mode(txn)
	if !held {
		rec := m.txnRecord(txn)
		rec.pages = append(rec.pages, p)
	}
	if mode == Exclusive {
		ls.drop(txn)
		ls.xHolder = txn
	} else if !held {
		ls.sHolders = append(ls.sHolders, txn)
	}
}

// ReleaseAll releases every lock txn holds and withdraws the request it is
// parked on, if any, then grants any newly-eligible waiters. Transactions
// call it at commit or abort. It visits only txn's own pages, in page order
// so wake-ups replay identically run to run: O(locks held), never O(locked
// pages).
func (m *Manager) ReleaseAll(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.waitsOn, txn)
	if rec := m.txns[txn]; rec != nil {
		delete(m.txns, txn)
		// A parked request (its caller raced Lock against its own
		// commit/abort) was never granted, so its Lock call must not return
		// nil: hand it ErrReleased before waking it, exactly as evict hands
		// ErrDeadlock to victims. Its page joins the walk at its place in
		// page order; it is already there if txn holds it.
		pages := rec.pages
		if rec.wait != nil && !slices.Contains(pages, rec.waitPage) {
			pages = append(pages, rec.waitPage)
		}
		slices.Sort(pages)
		for _, p := range pages {
			ls := m.locks[p]
			ls.drop(txn)
			if rec.wait != nil && p == rec.waitPage {
				ls.unqueue(rec.wait, ErrReleased)
			}
			m.wake(ls, p)
			m.cleanup(p, ls)
		}
		*rec = txnLocks{pages: pages[:0]}
		m.freeTxns.put(rec)
	}
	// Remove txn from everyone's waits-for sets.
	for _, edges := range m.waitsOn {
		delete(edges, txn)
	}
}

// wake grants queued waiters FIFO while compatible.
func (m *Manager) wake(ls *lockState, p PageID) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !ls.compatible(w.txn, w.mode) {
			return
		}
		ls.queue = slices.Delete(ls.queue, 0, 1)
		m.grant(ls, w.txn, p, w.mode)
		m.txns[w.txn].wait = nil
		if m.onGrant != nil {
			m.onGrant(w.txn, p)
		}
		// The waiter no longer waits on anyone for this page.
		delete(m.waitsOn, w.txn)
		close(w.ready)
		if w.mode == Exclusive {
			return
		}
	}
}

// cleanup drops p's lock state once nobody holds or awaits p, keeping it for
// reuse.
func (m *Manager) cleanup(p PageID, ls *lockState) {
	if ls.xHolder == 0 && len(ls.sHolders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, p)
		m.freeLocks.put(ls)
	}
}

// Holds reports whether txn currently holds p in at least mode.
func (m *Manager) Holds(txn TxnID, p PageID, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.locks[p]
	if ls == nil {
		return false
	}
	cur, ok := ls.mode(txn)
	return ok && (mode == Shared || cur == Exclusive)
}

// Stats reports the number of waits and deadlocks observed.
func (m *Manager) Stats() (waits, deadlocks int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waits, m.deadlocks
}

// Victims returns the deadlock victims chosen so far, in detection order.
// With the youngest-on-cycle rule the trace is a pure function of the wait
// graphs that formed, so same-seed runs produce identical traces.
func (m *Manager) Victims() []TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TxnID(nil), m.victims...)
}
