package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

// logPuts reports the log store's stable writes so far.
func logPuts(m *Manager) int64 {
	_, w := m.LogStore().Stats()
	return w
}

func logForces(m *Manager) int64 {
	var n int64
	for _, s := range m.streams {
		n += s.forces
	}
	return n
}

// TestLogVolume pins what a transaction costs in stable log bytes, puts and
// forces, exactly. Run it with -v (make logvolume) to read the bytes per
// transaction. A transfer logs 11 + 5 + 1 bytes: its second update and its
// commit follow the record before them in the chunk, so neither repeats
// the LSN and Txn, and an update logs its new bytes only (tag,
// LSN, Txn, page, offset, length, the byte), unless its page is stolen
// before it commits.
func TestLogVolume(t *testing.T) {
	balance := func(v byte) []byte { return []byte{0, 0, 0, 0, 0, 0, 3, v} }
	bigPage := func(v byte) []byte {
		p := bytes.Repeat([]byte{0x5a}, 4096)
		copy(p[2000:], bytes.Repeat([]byte{v}, 8)) // an 8-byte field mid-page, every byte of it changing
		return p
	}
	const tid = 1 << 17 // as wide as a transaction number gets in a long run
	transfer := func(t *testing.T, m *Manager, image func(byte) []byte) {
		must(t, m.Begin(tid))
		must(t, m.Write(tid, 0, image(1)))
		must(t, m.Write(tid, 1, image(2)))
		must(t, m.Commit(tid))
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		image  func(v byte) []byte
		run    func(t *testing.T, m *Manager, image func(v byte) []byte)
		bytes  int64 // stable log bytes
		puts   int64 // log store writes
		forces int64
	}{
		{name: "read-only commit", image: balance, bytes: 0, puts: 0, forces: 0,
			run: func(t *testing.T, m *Manager, _ func(byte) []byte) {
				must(t, m.Begin(tid))
				for p := int64(0); p < 8; p++ {
					if _, err := m.Read(tid, p); err != nil {
						t.Fatal(err)
					}
				}
				must(t, m.Commit(tid))
			}},
		{name: "empty abort", image: balance, bytes: 0, puts: 0, forces: 0,
			run: func(t *testing.T, m *Manager, _ func(byte) []byte) {
				must(t, m.Begin(tid))
				if _, err := m.Read(tid, 0); err != nil {
					t.Fatal(err)
				}
				must(t, m.Abort(tid))
			}},
		{name: "identical rewrite", image: balance, bytes: 0, puts: 0, forces: 0,
			run: func(t *testing.T, m *Manager, image func(byte) []byte) {
				must(t, m.Begin(tid))
				must(t, m.Write(tid, 0, image(0)))
				must(t, m.Commit(tid))
			}},
		{name: "transfer, 8-byte balances", image: balance, bytes: 17, puts: 1, forces: 1, run: transfer},
		// A one-page pool steals the first page to fetch the second: the
		// steal logs the first update's old byte in a 10-byte undo record
		// (tag, LSN, Txn, the distance to the update, length, the byte)
		// and forces it with the update, 21 bytes; the second update
		// starts the next chunk whole, and the commit follows it, 11 + 1
		// bytes.
		{name: "transfer, first page stolen", cfg: Config{PoolPages: 1}, image: balance, bytes: 33, puts: 2, forces: 2, run: transfer},
		// On three streams the transfer's records land on two, and a
		// stream's chunk only follows what is on that stream: the commit
		// (page 0's stream) does not follow the update on page 1's.
		{name: "transfer, 3 page-mod streams", cfg: Config{Streams: 3, Selection: PageMod},
			image: balance, bytes: 29, puts: 2, forces: 2, run: transfer},
		// Two transfers interleaved in one force: no record follows the
		// one before it, since that one is the other transaction's. The
		// second commit is forced alone.
		{name: "two transfers interleaved", image: balance, bytes: 58, puts: 2, forces: 2,
			run: func(t *testing.T, m *Manager, image func(byte) []byte) {
				must(t, m.Begin(tid))
				must(t, m.Begin(tid+1))
				must(t, m.Write(tid, 0, image(1)))
				must(t, m.Write(tid+1, 2, image(1)))
				must(t, m.Write(tid, 1, image(2)))
				must(t, m.Write(tid+1, 3, image(2)))
				must(t, m.Commit(tid))
				must(t, m.Commit(tid+1))
			}},
		{name: "one 8-byte change in a 4 KiB page", image: bigPage, bytes: 20, puts: 1, forces: 1,
			run: func(t *testing.T, m *Manager, image func(byte) []byte) {
				must(t, m.Begin(tid))
				must(t, m.Write(tid, 0, image(9)))
				must(t, m.Commit(tid))
			}},
		// Every byte changes: the record is the new image and a 10-byte
		// header (a two-byte length, no offset, no Del), not both images.
		{name: "a whole 4 KiB page rewritten", image: bigPage, bytes: 4096 + 10 + 1, puts: 1, forces: 1,
			run: func(t *testing.T, m *Manager, image func(byte) []byte) {
				must(t, m.Begin(tid))
				must(t, m.Write(tid, 0, bytes.Repeat([]byte{0xa5}, 4096)))
				must(t, m.Commit(tid))
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, _ := newTestManager(c.cfg)
			for p := int64(0); p < 8; p++ {
				must(t, m.Load(p, c.image(0)))
			}
			// LSNs as wide as in a long run too: a fresh log would flatter
			// the varints.
			m.nextLSN = 1 << 20
			c.run(t, m, c.image)
			got, puts, forces := m.Stats()["logBytes"], logPuts(m), logForces(m)
			t.Logf("%-36s %3d log bytes, %d log puts, %d forces (page %d B)", c.name, got, puts, forces, len(c.image(0)))
			if got != c.bytes || puts != c.puts || forces != c.forces {
				t.Errorf("logged %d bytes in %d puts and %d forces; want %d bytes, %d puts, %d forces",
					got, puts, forces, c.bytes, c.puts, c.forces)
			}
		})
	}
}

// TestLogVolumeOfTransferLog pins the stable log bytes per transaction of
// the crash-restart log: 30,000 transfers, as in the benchmark's
// crash-restart workload, so LSNs and transaction numbers are as wide as
// there, over 8 pages, which the pool holds, and over 1,024, which it does
// not. Run it with -v (make logvolume) to read the bytes per transaction;
// it fails above the budget, which is the count rounded up to 0.1 B.
func TestLogVolumeOfTransferLog(t *testing.T) {
	const txns = 30000
	for _, c := range []struct {
		pages  int
		budget float64
	}{
		{8, 16.3},
		{1024, 18.2},
	} {
		m := transferLog(t, Config{}, txns, c.pages, 1, false)
		per := float64(m.Stats()["logBytes"]) / txns
		t.Logf("transferLog, %4d pages: %.3f log B/txn (budget %.1f)", c.pages, per, c.budget)
		if per > c.budget {
			t.Errorf("transferLog over %d pages logs %.3f B per transaction, budget %.1f", c.pages, per, c.budget)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestStealForcesOnlyWhenTheRuleDemands: the write-ahead rule asks for the
// log to be durable up to the victim's page LSN, no further.
func TestStealForcesOnlyWhenTheRuleDemands(t *testing.T) {
	for _, streams := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d streams", streams), func(t *testing.T) {
			m, store := newTestManager(Config{Streams: streams, PoolPages: 2})
			for p := int64(0); p < 4; p++ {
				must(t, m.Load(p, page("orig")))
			}
			// Page 0 is dirtied by a committed transaction: its records are
			// durable. Transaction 2 then leaves a volatile record behind it.
			must(t, m.Begin(1))
			must(t, m.Write(1, 0, page("done")))
			must(t, m.Commit(1))
			must(t, m.Begin(2))
			must(t, m.Write(2, 1, page("open")))
			_, dataBefore := store.Stats()
			logBefore := logPuts(m)
			if _, err := m.Read(2, 2); err != nil { // evicts page 0
				t.Fatal(err)
			}
			_, dataAfter := store.Stats()
			if dataAfter-dataBefore != 1 || logPuts(m) != logBefore {
				t.Fatalf("steal of a page whose records are durable: %d data puts, %d log puts; want 1 and 0",
					dataAfter-dataBefore, logPuts(m)-logBefore)
			}
			// Page 1's own record is still volatile: that steal forces first.
			if _, err := m.Read(2, 3); err != nil { // evicts page 1
				t.Fatal(err)
			}
			if logPuts(m) != logBefore+1 {
				t.Fatalf("steal of a page with a volatile record wrote %d log chunks, want 1", logPuts(m)-logBefore)
			}
			for _, s := range m.streams {
				if h := s.head(); h != 0 && h <= 2 {
					t.Fatalf("stream %d still holds LSN %d volatile after the steal", s.idx, h)
				}
			}
			if m.Stats()["steals"] != 2 {
				t.Fatalf("steals = %d, want 2", m.Stats()["steals"])
			}
		})
	}
}

// TestIdleTransactionDoesNotPinTruncation: a transaction that has begun but
// written nothing has no first record for the checkpoint to keep.
func TestIdleTransactionDoesNotPinTruncation(t *testing.T) {
	m, _ := newTestManager(Config{})
	must(t, m.Load(1, page("v0")))
	must(t, m.Begin(99)) // begun, idle across everything below
	if _, err := m.Read(99, 1); err != nil {
		t.Fatal(err)
	}
	for tid := uint64(1); tid <= 5; tid++ {
		must(t, m.Begin(tid))
		must(t, m.Write(tid, 1, page(fmt.Sprintf("v%d", tid))))
		must(t, m.Commit(tid))
	}
	must(t, m.Checkpoint())
	// Only the checkpoint chunk and the stream metadata page remain.
	if n := m.LogStore().Pages(); n > 2 {
		t.Fatalf("idle transaction pinned the log: %d pages remain", n)
	}
	must(t, m.Commit(99))
	m.Crash()
	must(t, m.Recover())
	if got, _ := m.ReadCommitted(1); string(got) != "v5" {
		t.Fatalf("post-checkpoint state lost: %q", got)
	}
}

// TestLoserIsUndoneOnce: restart rolls a loser back with logged CLRs, so the
// next restart finds it compensated and leaves later committed work alone.
func TestLoserIsUndoneOnce(t *testing.T) {
	m, _ := newTestManager(Config{PoolPages: 2})
	must(t, m.Load(1, page("v0")))
	must(t, m.Begin(1))
	must(t, m.Write(1, 1, page("loser")))
	must(t, m.Begin(2)) // its commit carries the loser's record to disk
	must(t, m.Write(2, 50, page("a")))
	must(t, m.Write(2, 51, page("b")))
	must(t, m.Commit(2))
	m.Crash()
	must(t, m.Recover())
	if got, _ := m.ReadCommitted(1); string(got) != "v0" {
		t.Fatalf("loser not undone: %q", got)
	}
	must(t, m.Begin(3))
	must(t, m.Write(3, 1, page("kept")))
	must(t, m.Commit(3))
	m.Crash()
	must(t, m.Recover())
	if got, _ := m.ReadCommitted(1); string(got) != "kept" {
		t.Fatalf("second restart undid the old loser over committed work: %q", got)
	}
}

// TestGapEndsTheLog: with records spread over three streams, a power cut
// between two stream forces can leave a later record durable and an earlier
// one lost. Restart must end the log at the gap, trim what lies beyond it,
// and never replay a delta over a page that missed its predecessor — here
// the page's length changes, so a misapplied delta would be visible. The
// power is cut at every log write of the commit in turn, under every
// selection policy; a second transaction, open on another page, puts
// records on a stream the first does not use.
func TestGapEndsTheLog(t *testing.T) {
	for _, sel := range []Selection{PageMod, TxnMod} {
		t.Run(sel.String(), func(t *testing.T) {
			trims := int64(0)
			for cut := int64(0); ; cut++ {
				m, _ := newTestManager(Config{Streams: 3, Selection: sel})
				journal := obs.NewJournal()
				m.SetJournal(journal)
				must(t, m.Load(1, page("0123456789")))
				must(t, m.Load(2, page("two")))
				must(t, m.Begin(1))
				must(t, m.Begin(2))
				must(t, m.Write(1, 1, page("0123456789-grown")))
				must(t, m.Write(2, 2, page("loser")))
				must(t, m.Write(1, 1, page("01-shrunk")))
				must(t, m.Write(1, 1, page("01-shrunk-and-grown-again")))
				m.LogStore().SetFaultHook(pagestore.CrashAtMutation(cut + 1)) // power fails during the commit's forces
				want := "0123456789"
				if err := m.Commit(1); err == nil {
					want = "01-shrunk-and-grown-again" // cut lies past the commit's last force
				}
				m.Crash()
				m.LogStore().SetFaultHook(nil)
				must(t, m.Recover())
				if got, _ := m.ReadCommitted(1); string(got) != want {
					t.Fatalf("cut %d: page 1 = %q after restart, want %q", cut, got, want)
				}
				if got, _ := m.ReadCommitted(2); string(got) != "two" {
					t.Fatalf("cut %d: the loser's page 2 = %q after restart", cut, got)
				}
				for _, r := range journal.Records() {
					if r.Event == "trim" {
						trims += r.N
					}
				}
				// The trimmed LSNs are handed out again; a further crash must read
				// a clean log.
				must(t, m.Begin(3))
				must(t, m.Write(3, 1, page("after")))
				must(t, m.Commit(3))
				m.Crash()
				must(t, m.Recover())
				if got, _ := m.ReadCommitted(1); string(got) != "after" {
					t.Fatalf("cut %d: page = %q after the second restart", cut, got)
				}
				if want != "0123456789" {
					break
				}
			}
			if trims == 0 {
				t.Error("no cut left a gap between streams: trimming went unexercised")
			}
		})
	}
}

// edit derives a new page image from cur: the delta rules must hold for
// every shape of change.
func edit(rng *rand.Rand, cur []byte) []byte {
	out := append([]byte(nil), cur...)
	word := func() []byte {
		b := make([]byte, 1+rng.Intn(12))
		rng.Read(b)
		return b
	}
	at := func() int { return rng.Intn(len(out) + 1) }
	switch k := rng.Intn(8); {
	case k == 0: // identical rewrite
	case k == 1: // to empty
		out = out[:0]
	case k == 2 || len(out) == 0: // grow at the end
		out = append(out, word()...)
	case k == 3: // grow in the middle
		i := at()
		out = append(out[:i:i], append(word(), out[i:]...)...)
	case k == 4: // shrink
		i := at()
		j := i + rng.Intn(len(out)-i+1)
		out = append(out[:i], out[j:]...)
	case k == 5: // replace everything
		out = word()
	default: // overwrite a range in place
		i := rng.Intn(len(out))
		copy(out[i:], word())
	}
	if len(out) > 200 {
		out = out[:200]
	}
	return out
}

// deltaScript drives m through a seeded mix of transactions — up to two at
// a time, on disjoint pages as page-level two-phase locking would have it —
// and keeps the oracle. It stops at the first storage error.
type deltaScript struct {
	m       *Manager
	rng     *rand.Rand
	pages   int
	model   map[int][]byte            // committed state
	active  map[uint64]map[int][]byte // write sets of open transactions
	order   []uint64                  // open transactions, oldest first
	owner   map[int]uint64            // page -> the open transaction that wrote it
	doubt   map[int][]byte            // write set of an in-doubt commit
	nextTID uint64
	commits int
}

func newDeltaScript(m *Manager, seed int64, pages int) (*deltaScript, error) {
	s := &deltaScript{m: m, rng: rand.New(rand.NewSource(seed)), pages: pages,
		model: map[int][]byte{}, active: map[uint64]map[int][]byte{}, owner: map[int]uint64{}}
	for p := 0; p < pages; p++ {
		v := []byte(fmt.Sprintf("page-%d-initial", p))
		if p == 0 {
			v = nil // a page that starts empty
		}
		if err := m.Load(int64(p), v); err != nil {
			return nil, err
		}
		s.model[p] = v
	}
	return s, nil
}

// run performs steps operations; false means the power failed.
func (s *deltaScript) run(steps int) bool {
	for i := 0; i < steps; i++ {
		if !s.step() {
			return false
		}
	}
	return true
}

func (s *deltaScript) end(tid uint64) {
	for p, o := range s.owner {
		if o == tid {
			delete(s.owner, p)
		}
	}
	delete(s.active, tid)
	for i, o := range s.order {
		if o == tid {
			s.order = append(s.order[:i], s.order[i+1:]...)
		}
	}
}

func (s *deltaScript) step() bool {
	k := s.rng.Intn(20)
	if len(s.order) == 0 || (k == 0 && len(s.order) < 2) {
		s.nextTID++
		if s.m.Begin(s.nextTID) != nil {
			return false
		}
		s.active[s.nextTID] = map[int][]byte{}
		s.order = append(s.order, s.nextTID)
		return true
	}
	tid := s.order[s.rng.Intn(len(s.order))]
	ws := s.active[tid]
	switch {
	case k < 12: // write a page nobody else holds
		p := s.rng.Intn(s.pages)
		if o, held := s.owner[p]; held && o != tid {
			return true
		}
		cur, ok := ws[p]
		if !ok {
			cur = s.model[p]
		}
		v := edit(s.rng, cur)
		if s.m.Write(tid, int64(p), v) != nil {
			return false
		}
		s.owner[p], ws[p] = tid, v
	case k < 16:
		if s.m.Commit(tid) != nil {
			s.doubt = ws
			return false
		}
		for p, v := range ws {
			s.model[p] = v
		}
		s.commits++
		s.end(tid)
	case k < 19:
		if s.m.Abort(tid) != nil {
			return false
		}
		s.end(tid)
	default:
		if s.m.Checkpoint() != nil {
			return false
		}
	}
	return true
}

// crashed resets the script's view of open transactions after a restart.
func (s *deltaScript) crashed() {
	s.active, s.order, s.owner = map[uint64]map[int][]byte{}, nil, map[int]uint64{}
}

// audit compares the recovered pages with the oracle; an in-doubt commit may
// surface whole or not at all, and is then settled in the model.
func (s *deltaScript) audit() error {
	applied, reverted := 0, 0
	for p := 0; p < s.pages; p++ {
		got, err := s.m.ReadCommitted(int64(p))
		if err != nil {
			return err
		}
		want := s.model[p]
		if v, ok := s.doubt[p]; ok && !bytes.Equal(v, want) {
			switch {
			case bytes.Equal(got, v):
				applied++
			case bytes.Equal(got, want):
				reverted++
			default:
				return fmt.Errorf("page %d = %q, neither in-doubt %q nor committed %q", p, got, v, want)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("page %d = %q, want %q", p, got, want)
		}
	}
	if applied > 0 && reverted > 0 {
		return fmt.Errorf("in-doubt commit torn: %d pages applied, %d reverted", applied, reverted)
	}
	if applied > 0 {
		for p, v := range s.doubt {
			s.model[p] = v
		}
	}
	s.doubt = nil
	return nil
}

// TestDeltaCrashProperty: seeded random edits — grow, shrink, to empty,
// identical rewrite, successive transactions changing disjoint ranges of
// one page, aborts with CLRs, checkpoints — with the power cut at every
// stable mutation in turn, recovery itself re-crashed, and then more work
// and one more crash on top of the recovered state. The pages must equal
// the oracle every time.
func TestDeltaCrashProperty(t *testing.T) {
	const pages, steps = 5, 120
	for _, cfg := range []Config{
		{Streams: 1, PoolPages: 3},
		{Streams: 3, Selection: PageMod, PoolPages: 3},
		{Streams: 3, Selection: TxnMod, PoolPages: 3},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%d-%v", cfg.Streams, cfg.Selection), func(t *testing.T) {
			points, trims, commits := 0, int64(0), 0
			for seed := int64(1); seed <= 3; seed++ {
				for k := int64(1); ; k++ {
					m, store := newTestManager(cfg)
					journal := obs.NewJournal()
					m.SetJournal(journal)
					s, err := newDeltaScript(m, seed, pages)
					must(t, err)
					var muts int64
					hook := func(op pagestore.Op, _ pagestore.PageID, _ int64) bool {
						if op == pagestore.OpRead {
							return false
						}
						muts++
						return muts == k
					}
					store.SetFaultHook(hook)
					m.LogStore().SetFaultHook(hook)
					if s.run(steps) {
						break // k is past the script's last mutation
					}
					points++
					fail := func(stage string, err error) {
						t.Helper()
						t.Fatalf("seed %d, cut at mutation %d, %s: %v", seed, k, stage, err)
					}
					// Re-crash recovery at a k-derived operation, then let it finish.
					var ops int64
					rehook := func(pagestore.Op, pagestore.PageID, int64) bool {
						ops++
						return ops == 1+(k-1)%7
					}
					m.Crash()
					s.crashed()
					store.SetFaultHook(rehook)
					m.LogStore().SetFaultHook(rehook)
					if err := m.Recover(); err != nil {
						m.Crash()
						if err := m.Recover(); err != nil {
							fail("second recovery", err)
						}
					}
					store.SetFaultHook(nil)
					m.LogStore().SetFaultHook(nil)
					if err := s.audit(); err != nil {
						fail("after recovery", err)
					}
					// Life goes on over the recovered log, and ends in another crash.
					if !s.run(25) {
						fail("continuing", fmt.Errorf("storage error without injection"))
					}
					m.Crash()
					s.crashed()
					if err := m.Recover(); err != nil {
						fail("recovery after more work", err)
					}
					if err := s.audit(); err != nil {
						fail("after more work and another crash", err)
					}
					commits += s.commits
					for _, r := range journal.Records() {
						if r.Event == "trim" {
							trims += r.N
						}
					}
				}
			}
			if points < 100 || commits == 0 {
				t.Fatalf("only %d crash points, %d commits: the script is too weak", points, commits)
			}
			if cfg.Streams > 1 && cfg.Selection != PageMod && trims == 0 {
				t.Error("no crash ever left a gap between streams: trimming went unexercised")
			}
			t.Logf("%d crash points, %d records trimmed beyond a gap", points, trims)
		})
	}
}

// BenchmarkManagerTransfer is the kernel's forward path alone: one transfer
// between two 8-byte balances over 16x more pages than the pool holds, so
// every transaction steals.
func BenchmarkManagerTransfer(b *testing.B) {
	const pages = 1024
	m, _ := newTestManager(Config{})
	bal := make([]byte, 8)
	for p := int64(0); p < pages; p++ {
		if err := m.Load(p, bal); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid := uint64(i + 1)
		from, to := int64(rng.Intn(pages)), int64(rng.Intn(pages))
		if err := m.Begin(tid); err != nil {
			b.Fatal(err)
		}
		for _, p := range []int64{from, to} {
			v, err := m.Read(tid, p)
			if err != nil {
				b.Fatal(err)
			}
			v[7]++
			if err := m.Write(tid, p, v); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Commit(tid); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats()["logBytes"])/float64(b.N), "logB/txn")
}
