package wal

import (
	"fmt"
	"testing"

	"repro/internal/pagestore"
)

// TestRecyclingIsInvisible: pool frames, their page buffers and transaction
// records are all reused, and none of it may show. With a two-page pool over
// sixteen pages nearly every fetch recycles a victim's frame, and the second
// and third transactions run on records the ones before them left behind.
func TestRecyclingIsInvisible(t *testing.T) {
	const pages = 16
	m, store := newTestManager(Config{PoolPages: 2})
	val := func(p int, who string) []byte { return []byte(fmt.Sprintf("p%02d-%s", p, who)) }
	for p := 0; p < pages; p++ {
		must(t, m.Load(int64(p), val(p, "ld")))
	}

	// Bytes a Read returned stay intact while later fetches recycle the
	// frame and the buffer they were read from.
	must(t, m.Begin(1))
	first, err := m.Read(1, 0)
	must(t, err)
	for p := 1; p < pages; p++ {
		if _, err := m.Read(1, int64(p)); err != nil {
			t.Fatal(err)
		}
	}
	if string(first) != string(val(0, "ld")) {
		t.Fatalf("a Read's bytes changed under later fetches: %q", first)
	}

	// Every write but the last two is stolen by the next one's fetch; each
	// stolen page reads back from the store exactly as written, under the
	// LSN of its update.
	var lsn [pages]uint64
	for p := 0; p < pages; p++ {
		must(t, m.Write(1, int64(p), val(p, "t1")))
		lsn[p] = m.nextLSN - 1
	}
	must(t, m.Commit(1))
	if got := m.Stats()["steals"]; got != pages-2 {
		t.Fatalf("steals = %d, want %d", got, pages-2)
	}
	for p := 0; p < pages-2; p++ {
		data, version, err := store.Read(pagestore.PageID(p))
		must(t, err)
		if string(data) != string(val(p, "t1")) || version != lsn[p] {
			t.Fatalf("stolen page %d reads back %q at LSN %d, want %q at LSN %d", p, data, version, val(p, "t1"), lsn[p])
		}
	}

	// Transactions 2 and 3 each take the record the one before them ended
	// with. An abort puts back its own transaction's old bytes: the
	// committed t1 images, not the loaded images transaction 1 replaced.
	// Each update's old bytes differ from the one before it, so one
	// update's undo bytes overwriting another's shows too.
	for tid := 2; tid <= 3; tid++ {
		must(t, m.Begin(uint64(tid)))
		for i, p := range []int{3, 5, 3} {
			must(t, m.Write(uint64(tid), int64(p), val(p, fmt.Sprintf("%d%c", tid, 'a'+i))))
		}
		must(t, m.Abort(uint64(tid)))
	}
	for p := 0; p < pages; p++ {
		got, err := m.ReadCommitted(int64(p))
		must(t, err)
		if string(got) != string(val(p, "t1")) {
			t.Fatalf("page %d holds %q after the aborts, want %q", p, got, val(p, "t1"))
		}
	}

	// After a restart the pool fills from empty again, with a spare buffer
	// left over from before the crash: two pages fetched in a row must not
	// share it.
	m.Crash()
	must(t, m.Recover())
	for p := 0; p < pages; p++ {
		for _, q := range []int{p, (p + 1) % pages, p} {
			got, err := m.ReadCommitted(int64(q))
			must(t, err)
			if string(got) != string(val(q, "t1")) {
				t.Fatalf("page %d holds %q after restart, want %q", q, got, val(q, "t1"))
			}
		}
	}
}
