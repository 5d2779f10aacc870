package diffeng

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pagestore"
)

// stableChunks returns the differential chunks e has forced, oldest first.
func stableChunks(t testing.TB, e *Engine) [][]byte {
	var out [][]byte
	for seq := int64(0); seq < e.nextChunk; seq++ {
		data, _, err := e.store.Read(chunkPage(seq))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// fuzzEngine is a fresh engine over the base pages every FuzzDiffRecover run
// starts from. Its 256-byte pages keep the chunks, and so the inputs, small.
func fuzzEngine() *Engine {
	e := New(pagestore.New(256))
	for p := int64(0); p < 4; p++ {
		if err := e.Load(p, []byte(fmt.Sprintf("base-%d", p))); err != nil {
			panic(err)
		}
	}
	return e
}

// FuzzDiffRecover writes arbitrary bytes as the differential file's first
// three chunks, skipping empty ones, and restarts: Recover must return an
// error or succeed, never panic, and when it succeeds a second crash and
// restart must reach the same committed view. The seeds are real chunks: a
// transfer, three commits one chunk each, a commit whose force was torn
// mid-entry, a transaction whose chunk with its commit marker was lost, and
// a chunk holding an entry of type 2, which is never written.
func FuzzDiffRecover(f *testing.F) {
	commit := func(e *Engine, tid uint64, writes map[int64]string) {
		err := e.Begin(tid)
		for p := int64(0); p < 4 && err == nil; p++ {
			if v, ok := writes[p]; ok {
				err = e.Write(tid, p, []byte(v))
			}
		}
		if err == nil {
			err = e.Commit(tid)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	add := func(chunks ...[]byte) {
		for len(chunks) < 3 {
			chunks = append(chunks, nil)
		}
		f.Add(chunks[0], chunks[1], chunks[2])
	}

	e := fuzzEngine()
	commit(e, 1, map[int64]string{0: "debit", 1: "credit"})
	transfer := stableChunks(f, e)
	add(transfer...)

	commit(e, 2, map[int64]string{2: "two"})
	commit(e, 3, map[int64]string{0: "three", 3: "three"})
	three := stableChunks(f, e)
	add(three...)
	add(three[0], three[1], three[2][:len(three[2])-5])
	add(three[0], three[1][:entry{typ: entryAdd}.size()+2]) // cut inside the first entry's image

	big := fuzzEngine()
	commit(big, 1, map[int64]string{0: string(bytes.Repeat([]byte{'a'}, 120)), 1: string(bytes.Repeat([]byte{'b'}, 120))})
	split := stableChunks(f, big)
	if len(split) != 2 {
		f.Fatalf("a 240-byte commit took %d chunks, want 2", len(split))
	}
	add(split[0])

	obituary := entry{typ: 2, txn: 1, page: 0}.marshal(nil)
	add(append(obituary, transfer[0]...))

	f.Fuzz(func(t *testing.T, c0, c1, c2 []byte) {
		e := fuzzEngine()
		for i, c := range [][]byte{c0, c1, c2} {
			if len(c) == 0 {
				continue
			}
			if len(c) > e.store.PageSize() {
				c = c[:e.store.PageSize()]
			}
			if err := e.store.Write(chunkPage(int64(i)), c, 0); err != nil {
				t.Fatal(err)
			}
		}
		e.Crash()
		if e.Recover() != nil {
			return
		}
		view, replayed := e.view, e.replayed
		e.Crash()
		if err := e.Recover(); err != nil {
			t.Fatalf("second restart: %v", err)
		}
		if !reflect.DeepEqual(e.view, view) || e.replayed != replayed {
			t.Fatalf("second restart replayed %d entries to %v; the first replayed %d to %v", e.replayed, e.view, replayed, view)
		}
		for p := int64(0); p < 4; p++ {
			if _, err := e.ReadCommitted(p); err != nil {
				t.Fatalf("page %d after restart: %v", p, err)
			}
		}
	})
}
