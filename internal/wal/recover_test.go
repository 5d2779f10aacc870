package wal

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pagestore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// transferLog runs txns committed transfers between two 8-byte balances over
// pages pages, with cfg's pool and no checkpoint, and then cuts the power.
// width transactions run at once, their records interleaved: all begin,
// each debits, each credits, each commits. They touch disjoint pages, as
// strict two-phase locking would have them. Width 1 is the crash-restart
// workload of the repository's benchmark, without the server. With sparse
// set, page p is sparsePage(p) instead.
func transferLog(tb testing.TB, cfg Config, txns, pages, width int, sparse bool) *Manager {
	tb.Helper()
	m, _ := newTestManager(cfg)
	id := func(p int64) int64 { return p }
	if sparse {
		id = sparsePage
	}
	bal := make([]byte, 8)
	for p := int64(0); p < int64(pages); p++ {
		if err := m.Load(id(p), bal); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ends := make([][2]int64, width)
	for i := 0; i < txns; i += width {
		round := ends[:min(width, txns-i)]
		for k := range round {
			for again := true; again; {
				round[k] = [2]int64{int64(rng.Intn(pages)), int64(rng.Intn(pages))}
				again = slices.ContainsFunc(round[:k], func(e [2]int64) bool {
					return slices.Contains(e[:], round[k][0]) || slices.Contains(e[:], round[k][1])
				})
			}
			if err := m.Begin(uint64(i + k + 1)); err != nil {
				tb.Fatal(err)
			}
		}
		for end := 0; end < 2; end++ {
			for k, e := range round {
				tid, p := uint64(i+k+1), id(e[end])
				v, err := m.Read(tid, p)
				if err != nil {
					tb.Fatal(err)
				}
				v[7]++
				if err := m.Write(tid, p, v); err != nil {
					tb.Fatal(err)
				}
			}
		}
		for k := range round {
			if err := m.Commit(uint64(i + k + 1)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	m.Crash()
	return m
}

// sparsePage spreads page p one per block of the pool's directory, near
// 1<<61: far from 0, and within the ids engine.checkPage allows.
func sparsePage(p int64) int64 { return 1<<61 + p<<8 }

// BenchmarkManagerRecover times restart alone over logs of 30,000 committed
// transfers, built and crashed outside the timer: the crash-restart log on
// 1,024 pages, on one stream and on three; the hot-upgrade shape, the same
// transfers on 8 pages; four transactions at a time interleaving on 8
// pages; and the one-stream log on 1,024 pages spread one per directory
// block near 1<<61 (sparsePage), which must cost what the dense one does. ns/txn, B/txn and allocs/txn are per logged transaction, and so
// are logB/txn, the stable log bytes restart reads, and dataReads/txn and
// dataWrites/txn, its data-page I/O.
func BenchmarkManagerRecover(b *testing.B) {
	const txns = 30000
	for _, c := range []struct {
		name         string
		cfg          Config
		pages, width int
		sparse       bool
	}{
		{"1stream", Config{}, 1024, 1, false},
		{"3streams-pagemod", Config{Streams: 3, Selection: PageMod}, 1024, 1, false},
		{"1stream-8pages", Config{}, 8, 1, false},
		{"interleaved-8pages", Config{}, 8, 4, false},
		{"sparse", Config{}, 1024, 1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var bytes, allocs, logBytes, reads, writes float64
			var before, after runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := transferLog(b, c.cfg, txns, c.pages, c.width, c.sparse)
				logBytes += float64(m.Stats()["logBytes"])
				r0, w0 := m.data.Stats()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				if err := m.Recover(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				r1, w1 := m.data.Stats()
				bytes += float64(after.TotalAlloc - before.TotalAlloc)
				allocs += float64(after.Mallocs - before.Mallocs)
				reads += float64(r1 - r0)
				writes += float64(w1 - w0)
			}
			per := float64(b.N) * txns
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/txn")
			b.ReportMetric(bytes/per, "B/txn")
			b.ReportMetric(allocs/per, "allocs/txn")
			b.ReportMetric(logBytes/per, "logB/txn")
			b.ReportMetric(reads/per, "dataReads/txn")
			b.ReportMetric(writes/per, "dataWrites/txn")
		})
	}
}

// TestRecoverAllocationBudget pins what restart allocates per logged
// transaction on the crash-restart log: it decodes each record straight
// out of one chunk buffer per stream and keeps state only for transactions
// still open, so neither its bytes nor its allocations grow with the log.
func TestRecoverAllocationBudget(t *testing.T) {
	const txns, pages, budget, allocBudget = 30000, 1024, 100, 0.01
	m := transferLog(t, Config{}, txns, pages, 1, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	must(t, m.Recover())
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / txns
	allocs := float64(after.Mallocs-before.Mallocs) / txns
	t.Logf("Recover allocated %.1f B and %.4f allocations per logged transaction (%d records scanned)", per, allocs, m.Stats()["scanned"])
	if per > budget || allocs > allocBudget {
		t.Fatalf("Recover allocated %.1f B and %.4f allocations per logged transaction, budget %d B and %.2f", per, allocs, budget, allocBudget)
	}
}

// TestRecoverReadsEachChunkOnce: restart reads each live chunk of each
// stream once, besides one meta page read and one probe past the last
// chunk per stream. A checkpoint has truncated all three streams first, so
// each has a meta page and starts past chunk 0.
func TestRecoverReadsEachChunkOnce(t *testing.T) {
	m, _ := newTestManager(Config{Streams: 3})
	transfer := func(tid uint64, from, to int64) {
		must(t, m.Begin(tid))
		must(t, m.Write(tid, from, page(fmt.Sprintf("debit-%d", tid))))
		must(t, m.Write(tid, to, page(fmt.Sprintf("credit-%d", tid))))
		must(t, m.Commit(tid))
	}
	for tid := uint64(1); tid <= 12; tid++ {
		transfer(tid, int64(tid%9), int64((tid+4)%9))
	}
	must(t, m.Checkpoint())
	for tid := uint64(13); tid <= 20; tid++ {
		transfer(tid, int64(tid%9), int64((tid+4)%9))
	}
	m.Crash()
	live := int64(0)
	for _, s := range m.streams {
		if s.truncated == 0 {
			t.Fatalf("the checkpoint truncated nothing on stream %d", s.idx)
		}
		live += s.nextChunk - s.firstChunk
	}
	before, _ := m.LogStore().Stats()
	must(t, m.Recover())
	after, _ := m.LogStore().Stats()
	if got, want := after-before, live+2*int64(len(m.streams)); got != want {
		t.Fatalf("restart made %d log-store reads, want %d: %d live chunks, and a meta page and a probe per stream", got, want, live)
	}
}

// TestRestartDataIOByPage: restart's data-page I/O follows pages, not log
// records. Restart reads a page when the log first names it, and again only
// to pool it: when a later record is ahead of the version it found, or
// after a steal of its own took the page out of the pool. It writes a page
// only to make room, and the redone pages otherwise stay in the pool until
// a steal or a checkpoint. On transferLog's 8 pages the pool holds every
// page, so restart reads each page once and writes none. On 1,024 pages
// behind a 64-page pool, where the log names every page but the stable
// version covers all but 66 records, it reads each page once and each of
// the 64 pages it redoes once more, and the redone pages fit the pool.
func TestRestartDataIOByPage(t *testing.T) {
	const txns = 30000
	for _, pages := range []int64{8, 1024} {
		m := transferLog(t, Config{}, txns, int(pages), 1, false)
		journal := obs.NewJournal()
		m.SetJournal(journal)
		r0, w0 := m.data.Stats()
		steals := m.Stats()["steals"]
		must(t, m.Recover())
		r1, w1 := m.data.Stats()
		steals = m.Stats()["steals"] - steals
		redone := map[int64]bool{}
		for _, r := range journal.Records() {
			if r.Event == "redo" {
				redone[*r.Page] = true
			}
		}
		reads, writes := r1-r0, w1-w0
		t.Logf("%4d pages: restart read %d and wrote %d data pages, redid %d records on %d pages, stole %d", pages, reads, writes, events(journal, "redo"), len(redone), steals)
		bound := pages + int64(len(redone)) + steals
		if pages <= int64(m.cfg.PoolPages) {
			bound = pages
		}
		if reads > bound || writes != 0 {
			t.Errorf("%d pages: restart read %d and wrote %d data pages; want ≤ %d reads (pages, plus pages redone, plus steals) and no write", pages, reads, writes, bound)
		}
	}
}

// TestSparseIDsRestartLikeDense: a page id or a transaction id anywhere in
// range costs restart what a dense one does. The same seeded transfers run
// twice, on 64 pages behind a 16-page pool: once on pages 0 to 63, once on
// the same pages spread one per block near 1<<61 (sparsePage). Each run
// crashes and restarts, runs a second incarnation and crashes and restarts
// again. Transaction ids cross a block boundary of the transaction table
// (256), and the first incarnation leaves a loser with the largest id there
// is, which the second restart meets in the log again. The final pages, the
// Stats (less logBytes: a record holds its page id as a varint) and each
// restart's data reads must match.
func TestSparseIDsRestartLikeDense(t *testing.T) {
	const pages, txns, loser = 64, 600, math.MaxUint64
	type result struct {
		pages      [][]byte
		stats      map[string]int64
		reads      []int64
		redo, undo int
	}
	run := func(id func(int64) int64) (res result) {
		m, _ := newTestManager(Config{PoolPages: 16})
		journal := obs.NewJournal()
		m.SetJournal(journal)
		for p := int64(0); p < pages; p++ {
			must(t, m.Load(id(p), make([]byte, 8)))
		}
		rng := rand.New(rand.NewSource(7))
		transfers := func() {
			for tid := uint64(200); tid < 200+txns; tid++ {
				must(t, m.Begin(tid))
				for k := 0; k < 2; k++ {
					p := id(1 + int64(rng.Intn(pages-1))) // the loser holds page 0
					v, err := m.Read(tid, p)
					must(t, err)
					v[7]++
					must(t, m.Write(tid, p, v))
				}
				must(t, m.Commit(tid))
			}
		}
		restart := func() {
			m.Crash()
			r0, _ := m.data.Stats()
			must(t, m.Recover())
			r1, _ := m.data.Stats()
			res.reads = append(res.reads, r1-r0)
		}
		must(t, m.Begin(loser))
		must(t, m.Write(loser, id(0), []byte("loser!!!")))
		transfers() // their commits force the loser's update
		restart()
		transfers()
		restart()
		for p := int64(0); p < pages; p++ {
			v, err := m.ReadCommitted(id(p))
			must(t, err)
			res.pages = append(res.pages, v)
		}
		res.stats = m.Stats()
		delete(res.stats, "logBytes")
		res.redo, res.undo = events(journal, "redo"), events(journal, "undo")
		return res
	}
	dense, sparse := run(func(p int64) int64 { return p }), run(sparsePage)
	t.Logf("restarts read %v data pages on dense ids and %v on sparse ones", dense.reads, sparse.reads)
	if !reflect.DeepEqual(dense, sparse) {
		t.Fatalf("sparse ids: reads %v, stats %v, %d redo and %d undo events\ndense ids: reads %v, stats %v, %d redo and %d undo events",
			sparse.reads, sparse.stats, sparse.redo, sparse.undo, dense.reads, dense.stats, dense.redo, dense.undo)
	}
	if dense.undo == 0 {
		t.Fatal("restart undid nothing: the loser's update never reached the log")
	}
}

// TestRecoverRecurringTxnIDs: transaction ids start again at 1 in each
// process, so one log can hold an id twice, once ended and once open. The
// first T1 commits a change to page 0 before a crash. After restart a new
// T1 changes page 1 and stays open, while T2 changes page 0 and commits.
// Restart must see that page 0's T1 has ended, so T2 may change it, and
// undo only the open T1.
func TestRecoverRecurringTxnIDs(t *testing.T) {
	m, _ := newTestManager(Config{})
	must(t, m.Load(0, page("page-0")))
	must(t, m.Load(1, page("page-1")))
	must(t, m.Begin(1))
	must(t, m.Write(1, 0, page("page-0-first-T1")))
	must(t, m.Commit(1))
	m.Crash()
	must(t, m.Recover())
	must(t, m.Begin(1)) // the next process's ids start at 1 again
	must(t, m.Write(1, 1, page("page-1-second-T1")))
	must(t, m.Begin(2))
	must(t, m.Write(2, 0, page("page-0-T2")))
	must(t, m.Commit(2)) // forces the second T1's record too
	for round := 1; round <= 2; round++ {
		m.Crash()
		if err := m.Recover(); err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		for p, want := range []string{"page-0-T2", "page-1"} {
			if got, err := m.ReadCommitted(int64(p)); err != nil || string(got) != want {
				t.Fatalf("restart %d: page %d = %q, %v; want %q", round, p, got, err, want)
			}
		}
	}
}

// TestChunkHoleIsCorrupt: forces write a stream's chunks in ascending order,
// and trim and truncate delete them only from the ends, so a missing chunk
// with a later one behind it is damage. Restart must fail, naming the
// stream and the chunk, rather than end the stream at the hole and lose
// the commits beyond it.
func TestChunkHoleIsCorrupt(t *testing.T) {
	m, _ := newTestManager(Config{})
	must(t, m.Load(1, page("v0")))
	for tid := uint64(1); tid <= 3; tid++ {
		must(t, m.Begin(tid))
		must(t, m.Write(tid, 1, page(fmt.Sprintf("v%d", tid))))
		must(t, m.Commit(tid))
	}
	if n := m.streams[0].nextChunk; n != 3 {
		t.Fatalf("three commits left %d chunks, want 3", n)
	}
	m.Crash()
	must(t, m.LogStore().Delete(chunkID(0, 1)))
	err := m.Recover()
	if err == nil {
		got, _ := m.ReadCommitted(1)
		t.Fatalf("Recover ended the stream at the missing chunk 1; page 1 = %q", got)
	}
	if !strings.Contains(err.Error(), "stream 0 chunk 1") {
		t.Fatalf("error does not name the stream and chunk: %v", err)
	}
}

// TestMissingUndoRecordIsCorrupt: an update of a loser whose page reached
// disk can be rolled back only from its undo record. With that record cut
// out of the log, restart must fail, naming the stream, the transaction and
// the update, rather than leave the loser's bytes on the page; with it,
// restart rolls the update back.
func TestMissingUndoRecordIsCorrupt(t *testing.T) {
	for _, streams := range []int{1, 3} {
		for _, cut := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d_streams_cut_%v", streams, cut), func(t *testing.T) {
				m, data := newTestManager(Config{Streams: streams, PoolPages: 1})
				must(t, m.Load(1, page("page-1")))
				must(t, m.Load(2, page("page-2")))
				must(t, m.Begin(7))
				must(t, m.Write(7, 1, page("loser")))
				if _, err := m.Read(7, 2); err != nil { // steals page 1
					t.Fatal(err)
				}
				m.Crash()
				if got, lsn, _ := data.Read(1); string(got) != "loser" || lsn != 1 {
					t.Fatalf("page 1 on disk = %q at LSN %d, want the loser's update at LSN 1", got, lsn)
				}
				undos := 0
				for i, s := range m.streams {
					for seq := s.firstChunk; seq < s.nextChunk; seq++ {
						chunk, _, err := m.LogStore().Read(chunkID(i, seq))
						must(t, err)
						recs, err := decodeChunk(chunk)
						must(t, err)
						kept := recs[:0]
						for _, r := range recs {
							if r.Type == RecUndo {
								undos++
								if cut {
									continue
								}
							}
							kept = append(kept, r)
						}
						must(t, m.LogStore().Write(chunkID(i, seq), encodeChunk(kept...), 0))
					}
				}
				if undos != 1 {
					t.Fatalf("the steal logged %d undo records, want 1", undos)
				}
				err := m.Recover()
				if !cut {
					must(t, err)
					if got, _ := m.ReadCommitted(1); string(got) != "page-1" {
						t.Fatalf("the loser's update was not rolled back: page 1 = %q", got)
					}
					return
				}
				if err == nil {
					got, _ := m.ReadCommitted(1)
					t.Fatalf("Recover succeeded without the undo record; page 1 = %q", got)
				}
				want := fmt.Sprintf("stream %d: no undo record for txn 7's update at LSN 1", 1%streams)
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			})
		}
	}
}

// TestTruncationCutAcrossStreams: a checkpoint on three streams writes each
// stream's meta page and then deletes the chunks below it, stream after
// stream. The power is cut at each of those mutations in turn. Restart must
// then give every page a restart after the whole checkpoint gives, and a
// second restart must change nothing. A transaction open across the
// checkpoint keeps the horizon inside chunks that survive, and is a loser.
func TestTruncationCutAcrossStreams(t *testing.T) {
	const pages = 9
	script := func() *Manager {
		m, _ := newTestManager(Config{Streams: 3, PoolPages: 3})
		for p := int64(0); p < pages; p++ {
			must(t, m.Load(p, page(fmt.Sprintf("page-%d", p))))
		}
		for tid := uint64(1); tid <= 6; tid++ {
			must(t, m.Begin(tid))
			must(t, m.Write(tid, int64(tid%pages), page(fmt.Sprintf("one-%d", tid))))
			if tid == 4 {
				must(t, m.Begin(100)) // open across the checkpoint
				must(t, m.Write(100, 7, page("loser")))
			}
			must(t, m.Write(tid, int64((tid+4)%pages), page(fmt.Sprintf("two-%d", tid))))
			if tid == 5 {
				must(t, m.Abort(tid))
				continue
			}
			must(t, m.Commit(tid))
		}
		return m
	}
	pagesAfter := func(m *Manager) []string {
		var out []string
		for p := int64(0); p < pages; p++ {
			got, err := m.ReadCommitted(p)
			must(t, err)
			out = append(out, string(got))
		}
		return out
	}

	// The reference: the whole checkpoint, then a restart.
	m := script()
	var muts []string // the checkpoint's log-store mutations; "" for a chunk it forced
	m.LogStore().SetFaultHook(func(op pagestore.Op, id pagestore.PageID, _ int64) bool {
		switch s, seq := int64(id)>>40, int64(id)&(1<<40-1); {
		case op == pagestore.OpRead:
		case op == pagestore.OpDelete:
			muts = append(muts, fmt.Sprintf("delete s%d.c%d", s, seq))
		case seq&maxChunks != 0:
			muts = append(muts, fmt.Sprintf("write s%d.meta", s))
		default:
			muts = append(muts, "")
		}
		return false
	})
	must(t, m.Checkpoint())
	m.LogStore().SetFaultHook(nil)
	m.Crash()
	must(t, m.Recover())
	want := pagesAfter(m)
	if want[7] != "two-3" {
		t.Fatalf("the open transaction was not undone: page 7 = %q", want[7])
	}

	cuts, metas := 0, 0
	for k, mut := range muts {
		if mut == "" {
			continue // a chunk the checkpoint forced, before its truncation
		}
		cuts++
		if strings.HasSuffix(mut, "meta") {
			metas++
		}
		m := script()
		m.LogStore().SetFaultHook(pagestore.CrashAtMutation(int64(k + 1)))
		if err := m.Checkpoint(); err == nil {
			t.Fatalf("cut at %s: the checkpoint survived", mut)
		}
		m.LogStore().SetFaultHook(nil)
		m.Crash()
		must(t, m.Recover())
		if got := pagesAfter(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %s: pages after restart\n got %q\nwant %q", mut, got, want)
		}
		m.Crash()
		must(t, m.Recover())
		if got := pagesAfter(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %s: a second restart changed pages\n got %q\nwant %q", mut, got, want)
		}
	}
	if metas != 3 || cuts < 6 {
		t.Fatalf("the truncation wrote %d meta pages in %d mutations, want 3 in 6 or more: %q", metas, cuts, muts)
	}
}

// TestOutOfOrderStreamIsCorrupt: a stream's LSNs ascend, so a chunk whose
// records go 1, 2, 4, 3 is corrupt. Restart must say so, naming the stream
// and the chunk, rather than end the log at a gap that is not there (one
// stream) or quietly reorder the records (several).
func TestOutOfOrderStreamIsCorrupt(t *testing.T) {
	chunk := encodeChunk(
		Record{LSN: 1, Type: RecUpdate, Txn: 1, Page: 1, Del: 1, New: page("A")},
		Record{LSN: 2, Type: RecCommit, Txn: 1},
		Record{LSN: 4, Type: RecCommit, Txn: 2},
		Record{LSN: 3, Type: RecUpdate, Txn: 2, Page: 2, Del: 1, New: page("B")},
	)
	for _, streams := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d_streams", streams), func(t *testing.T) {
			m, _ := newTestManager(Config{Streams: streams})
			must(t, m.Load(1, page("a")))
			must(t, m.Load(2, page("b")))
			must(t, m.LogStore().Write(chunkID(0, 0), chunk, 0))
			m.Crash()
			err := m.Recover()
			if err == nil {
				p2, _ := m.ReadCommitted(2)
				t.Fatalf("Recover accepted LSN 3 after LSN 4 in one stream; page 2 = %q", p2)
			}
			if !strings.Contains(err.Error(), "stream 0 chunk 0") {
				t.Fatalf("error does not name the stream and chunk: %v", err)
			}
		})
	}
}

// TestNegativePageLoserRecovers: restart reads page ids straight from the
// log, where engine's range check never ran. A loser's update on a
// negative page must still be undone on several streams, whose CLR picks
// a stream by that page, rather than index a stream below zero.
func TestNegativePageLoserRecovers(t *testing.T) {
	for _, pg := range []int64{-1, -9, math.MinInt64} {
		t.Run(fmt.Sprint(pg), func(t *testing.T) {
			m, _ := newTestManager(Config{Streams: 3})
			must(t, m.LogStore().Write(chunkID(0, 0), encodeChunk(
				Record{LSN: 1, Type: RecUpdate, Txn: 1, Page: pg, New: page("x")}), 0))
			m.Crash()
			must(t, m.Recover())
			if got, err := m.ReadCommitted(pg); err != nil || len(got) != 0 {
				t.Fatalf("page %d after undo = %q, %v; want empty", pg, got, err)
			}
			m.Crash()
			must(t, m.Recover())
		})
	}
}

// TestRecoverStoreOpSequence pins every stable-storage operation restart
// issues, in order, on a script with a loser, a CLR, a checkpoint and a gap
// between three streams. The crash sweeps re-crash restart at its first
// operations, so their crash points depend on exactly this sequence.
// Regenerate with go test ./internal/wal -run RecoverStoreOpSequence -update.
func TestRecoverStoreOpSequence(t *testing.T) {
	m, data := newTestManager(Config{Streams: 3, PoolPages: 3})
	journal := obs.NewJournal()
	m.SetJournal(journal)
	for p := int64(1); p <= 5; p++ {
		must(t, m.Load(p, page(fmt.Sprintf("page-%d", p))))
	}
	must(t, m.Begin(1)) // a winner
	must(t, m.Write(1, 1, page("page-1-one")))
	must(t, m.Write(1, 2, page("page-2-one")))
	must(t, m.Commit(1))
	must(t, m.Checkpoint())
	must(t, m.Begin(3)) // a loser whose records reach disk
	must(t, m.Write(3, 4, page("page-4-three")))
	must(t, m.Write(3, 1, page("p1")))
	must(t, m.Begin(4)) // its commit forces the loser's records
	must(t, m.Write(4, 5, page("page-5-four")))
	must(t, m.Write(4, 2, page("page-2-four-grown")))
	must(t, m.Begin(2)) // rolled back at run time: a CLR
	must(t, m.Write(2, 3, page("page-3-two")))
	must(t, m.Abort(2))
	must(t, m.Commit(4))
	must(t, m.Begin(5)) // cut mid-commit: a gap between the streams
	must(t, m.Write(5, 3, page("page-3-five")))
	must(t, m.Write(5, 5, page("5")))
	must(t, m.Write(5, 3, page("page-3-five-again")))
	m.LogStore().SetFaultHook(pagestore.CrashAtMutation(2))
	if err := m.Commit(5); err == nil {
		t.Fatal("commit survived the power cut")
	}
	m.Crash()

	var ops []string
	record := func(store string) pagestore.FaultHook {
		return func(op pagestore.Op, id pagestore.PageID, _ int64) bool {
			name := fmt.Sprint(int64(id))
			if store == "log" {
				s, seq := int64(id)>>40, int64(id)&(1<<40-1)
				name = fmt.Sprintf("s%d.c%d", s, seq)
				if seq&(1<<39) != 0 {
					name = fmt.Sprintf("s%d.meta", s)
				}
			}
			ops = append(ops, fmt.Sprintf("%s %v %s", store, op, name))
			return false
		}
	}
	data.SetFaultHook(record("data"))
	m.LogStore().SetFaultHook(record("log"))
	must(t, m.Recover())
	data.SetFaultHook(nil)
	m.LogStore().SetFaultHook(nil)

	events := map[string]int{}
	for _, r := range journal.Records() {
		events[r.Event+r.Note]++
	}
	for _, ev := range []string{"checkpoint", "truncate", "trim", "winner", "loser", "redo", "redoclr", "undo"} {
		if events[ev] == 0 {
			t.Fatalf("the script never produced a %q journal event: %v", ev, events)
		}
	}
	got := strings.Join(ops, "\n") + "\n"
	golden := filepath.Join("testdata", "recover_store_ops.txt")
	if *updateGolden {
		must(t, os.MkdirAll("testdata", 0o755))
		must(t, os.WriteFile(golden, []byte(got), 0o644))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("restart's store operations changed:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestPageRedoUnderRecrash: restart redoes many records on one page, in
// order. The pool holds every page, so nothing is stolen and the data
// store keeps the loaded images: restart must repeat all of page 0's
// history — a winner's updates, a rolled-back transaction's updates and
// their CLRs, a second winner's updates over the restored image, a run of
// short winners, and a loser's update — before it undoes the loser.
// Restart is re-crashed at every one of its store operations, reads
// included, and the restart after it must still give the committed pages.
// A redo that applied one page's records in any other order would splice
// deltas onto the wrong base.
func TestPageRedoUnderRecrash(t *testing.T) {
	const pages = 4
	script := func(t *testing.T, cfg Config, restartPool int) (*Manager, *pagestore.Store, *obs.Journal, map[int64]string) {
		m, data := newTestManager(cfg)
		model := map[int64]string{}
		for p := int64(0); p < pages; p++ {
			model[p] = fmt.Sprintf("page-%d-initial", p)
			must(t, m.Load(p, page(model[p])))
		}
		must(t, m.Begin(1)) // a winner: grow, then overwrite in place
		must(t, m.Write(1, 0, page("page-0-initial-grown")))
		must(t, m.Write(1, 0, page("PAGE-0-initial-grown")))
		must(t, m.Write(1, 1, page("page-1-one")))
		must(t, m.Commit(1))
		model[0], model[1] = "PAGE-0-initial-grown", "page-1-one"
		must(t, m.Begin(2)) // rolled back at run time: three CLRs on page 0
		must(t, m.Write(2, 0, page("x")))
		must(t, m.Write(2, 0, page("x-two-longer")))
		must(t, m.Write(2, 2, page("page-2-two")))
		must(t, m.Write(2, 0, page("PAGE-0")))
		must(t, m.Abort(2))
		must(t, m.Begin(3)) // a winner over the restored image
		must(t, m.Write(3, 0, page("PAGE-0-initial")))
		must(t, m.Write(3, 0, page("page-0-three")))
		must(t, m.Write(3, 3, page("page-3-three")))
		must(t, m.Commit(3))
		model[0], model[3] = "page-0-three", "page-3-three"
		for tid := uint64(10); tid < 22; tid++ { // short winners, a force each
			p := int64(tid % pages)
			model[p] = fmt.Sprintf("page-%d-%d", p, tid)
			must(t, m.Begin(tid))
			must(t, m.Write(tid, p, page(model[p])))
			must(t, m.Commit(tid))
		}
		must(t, m.Begin(4)) // a loser, on page 0 as well
		must(t, m.Write(4, 0, page("page-0-four")))
		must(t, m.Write(4, 2, page("page-2-four")))
		must(t, m.Begin(5)) // its commit forces the loser's records
		must(t, m.Write(5, 1, page("page-1-five")))
		must(t, m.Commit(5))
		model[1] = "page-1-five"
		m.Crash()
		if restartPool != 0 { // the next process runs with a smaller pool
			m = NewManager(data, Config{Streams: cfg.Streams, LogStore: m.LogStore(), PoolPages: restartPool})
		}
		journal := obs.NewJournal()
		m.SetJournal(journal)
		return m, data, journal, model
	}
	audit := func(m *Manager, model map[int64]string) error {
		for p := int64(0); p < pages; p++ {
			got, err := m.ReadCommitted(p)
			if err != nil {
				return err
			}
			if string(got) != model[p] {
				return fmt.Errorf("page %d = %q, want %q", p, got, model[p])
			}
		}
		return nil
	}
	for _, c := range []struct {
		name        string
		cfg         Config
		restartPool int // the pool restart runs with, when not cfg's
	}{
		{"1-streams", Config{Streams: 1, PoolPages: pages}, 0},
		{"3-streams", Config{Streams: 3, PoolPages: 2 * pages}, 0},
		// A two-page pool steals the loser's page 0 before the crash, after
		// its undo record, while its page 2 stays in the pool: restart
		// pins page 2 for the loser from its redo to its rollback, and
		// rolls page 0 back from the undo record.
		{"1-streams-held", Config{Streams: 1, PoolPages: 2}, 0},
		// Restart redoes all four pages in a two-page pool: it steals the
		// pages the winners redid, and those writes are crash points too.
		{"1-streams-restart-pool-2", Config{Streams: 1, PoolPages: pages}, 2},
	} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			// Restart without a fault redoes the whole of page 0's history,
			// when the pool held every page.
			m, _, journal, model := script(t, cfg, c.restartPool)
			if cfg.PoolPages < pages && m.Stats()["stealsUncommitted"] == 0 {
				t.Fatal("the small pool stole no page before its transaction ended")
			}
			must(t, m.Recover())
			if c.restartPool != 0 && m.Stats()["steals"] == 0 {
				t.Fatal("restart's small pool stole no page")
			}
			if err := audit(m, model); err != nil {
				t.Fatal(err)
			}
			redo := map[string]int{}
			for _, r := range journal.Records() {
				if r.Event == "redo" && r.Page != nil && *r.Page == 0 {
					redo[r.Note]++
				}
			}
			if cfg.PoolPages >= pages && (redo[""] < 6 || redo["clr"] < 3) {
				t.Fatalf("page 0 redid %d updates and %d CLRs, want ≥ 6 and ≥ 3", redo[""], redo["clr"])
			}

			points := 0
			for k := int64(1); ; k++ {
				m, data, _, model := script(t, cfg, c.restartPool)
				hook := pagestore.CrashAtOp(k)
				data.SetFaultHook(hook)
				m.LogStore().SetFaultHook(hook)
				err := m.Recover()
				data.SetFaultHook(nil)
				m.LogStore().SetFaultHook(nil)
				if err == nil {
					if err := audit(m, model); err != nil {
						t.Fatalf("restart without a cut: %v", err)
					}
					break // k is past restart's last operation
				}
				points++
				m.Crash()
				if err := m.Recover(); err != nil {
					t.Fatalf("restart cut at operation %d, then restarted: %v", k, err)
				}
				if err := audit(m, model); err != nil {
					t.Fatalf("restart cut at operation %d, then restarted: %v", k, err)
				}
			}
			if points < 20 {
				t.Fatalf("restart issued only %d store operations", points)
			}
			t.Logf("restart re-crashed at each of its %d store operations", points)
		})
	}
}

// TestStealsUncommitted counts the dirty pages that reach disk while an
// active transaction has an uncompensated update on them. The
// crash-restart log never writes one: its pool either holds every page or
// evicts the least recently used, which a commit has long since settled.
// Even a two-page pool evicts only the page before a transfer's first;
// a one-page pool steals that first page before the transfer commits
// (unless both ends are that page).
func TestStealsUncommitted(t *testing.T) {
	for _, c := range []struct {
		pages, pool int
		want        string
	}{
		{8, 0, "0"},
		{1024, 0, "0"},
		{1024, 2, "0"},
		{1024, 1, "> 0"},
	} {
		m := transferLog(t, Config{PoolPages: c.pool}, 30000, c.pages, 1, false)
		got := m.Stats()["stealsUncommitted"]
		t.Logf("%4d pages, pool %2d: %d of %d steals uncommitted", c.pages, c.pool, got, m.Stats()["steals"])
		if (c.want == "0") != (got == 0) {
			t.Errorf("%d pages, pool %d: stealsUncommitted = %d, want %s", c.pages, c.pool, got, c.want)
		}
	}
}
