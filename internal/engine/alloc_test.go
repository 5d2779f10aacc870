package engine

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// transferRig is the crash-restart workload's engine without the benchmark's
// loop: the WAL over memory stores, 1,024 8-byte balance pages behind a
// 64-page pool, so most transfers miss the pool and steal a dirty page.
type transferRig struct {
	e        *Engine
	rng      *rand.Rand
	from, to []byte // the two balances a transfer writes, reused
}

func newTransferRig(tb testing.TB) *transferRig {
	tb.Helper()
	const pages = 1024
	e, _ := NewWALOn(pagestore.New(4096), wal.Config{PoolPages: 64})
	for p := int64(0); p < pages; p++ {
		if err := e.Load(p, enc(1000)); err != nil {
			tb.Fatal(err)
		}
	}
	return &transferRig{e: e, rng: rand.New(rand.NewSource(1)), from: make([]byte, 8), to: make([]byte, 8)}
}

// transfer moves one unit between two random pages: Begin, Read, Read,
// Write, Write, Commit.
func (r *transferRig) transfer(tb testing.TB) {
	from, to := int64(r.rng.Intn(1024)), int64(r.rng.Intn(1024))
	t, err := r.e.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	a, err := t.Read(from)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := t.Read(to)
	if err != nil {
		tb.Fatal(err)
	}
	binary.BigEndian.PutUint64(r.from, binary.BigEndian.Uint64(a)-1)
	binary.BigEndian.PutUint64(r.to, binary.BigEndian.Uint64(b)+1)
	if err := t.Write(from, r.from); err != nil {
		tb.Fatal(err)
	}
	if err := t.Write(to, r.to); err != nil {
		tb.Fatal(err)
	}
	if err := t.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// TestTransferAllocationBudget pins what a warmed transfer allocates on its
// way through engine, wal and pagestore. Four allocations are what the API
// asks for: the *Txn, one copy per Read, and the log chunk a commit forces
// to a new page of the log store. Pool frames, transaction records, undo
// bytes and stored pages are all reused.
func TestTransferAllocationBudget(t *testing.T) {
	const budget = 4
	r := newTransferRig(t)
	for i := 0; i < 4096; i++ {
		r.transfer(t)
	}
	if n := testing.AllocsPerRun(2000, func() { r.transfer(t) }); n > budget {
		t.Fatalf("a transfer allocates %.0f times, budget %d", n, budget)
	}
}

// BenchmarkEngineTransfer times one warmed transfer through engine, wal and
// pagestore on the crash-restart shape, with its allocations.
func BenchmarkEngineTransfer(b *testing.B) {
	r := newTransferRig(b)
	for i := 0; i < 4096; i++ {
		r.transfer(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.transfer(b)
	}
}
