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
// three chunks, up to the last non-empty one (an empty one before it is an
// empty chunk), and restarts: Recover must return an error or succeed,
// never panic, and when it succeeds it must leave no chunk at or past
// nextChunk, and a second crash and restart must reach the same committed
// view. The seeds are real chunks: a transfer; three commits, one chunk
// each; the same with the third run's marker cut; the same with the second
// run cut inside its first entry's image; a run spanning two chunks cut
// after its first; a chunk holding an entry of type 2, which is never
// written; the spanning run whole; and an empty chunk 0 (a merge that
// wrote B) before a complete chunk 1. The two seeds cut mid-entry were
// refused when an entry had to end its chunk; now they recover as torn
// runs.
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
	add(three[0], three[1][:entryHeader+2]) // cut inside the first entry's image

	big := fuzzEngine()
	commit(big, 1, map[int64]string{0: string(bytes.Repeat([]byte{'a'}, 120)), 1: string(bytes.Repeat([]byte{'b'}, 120))})
	split := stableChunks(f, big)
	if len(split) != 2 {
		f.Fatalf("a 240-byte commit took %d chunks, want 2", len(split))
	}
	add(split[0])

	obituary := entry{typ: 2, txn: 1, page: 0}.marshal(nil)
	add(append(obituary, transfer[0]...))

	add(split...)
	add(nil, transfer[0])

	f.Fuzz(func(t *testing.T, c0, c1, c2 []byte) {
		e := fuzzEngine()
		chunks := [][]byte{c0, c1, c2}
		for len(chunks) > 0 && len(chunks[len(chunks)-1]) == 0 {
			chunks = chunks[:len(chunks)-1]
		}
		for i, c := range chunks {
			if err := e.store.Write(chunkPage(int64(i)), c[:min(len(c), e.store.PageSize())], 0); err != nil {
				t.Fatal(err)
			}
		}
		replayed, err := restart(t, e)
		if err != nil {
			return
		}
		for seq := e.nextChunk; seq < 3; seq++ {
			if ok, err := e.store.Exists(chunkPage(seq)); err != nil || ok {
				t.Fatalf("after restart chunk %d exists (%v), next chunk %d", seq, err, e.nextChunk)
			}
		}
		view := e.view
		again, err := restart(t, e)
		if err != nil {
			t.Fatalf("second restart: %v", err)
		}
		if !reflect.DeepEqual(e.view, view) || again != replayed {
			t.Fatalf("second restart replayed %d entries to %v; the first replayed %d to %v", again, e.view, replayed, view)
		}
		for p := int64(0); p < 4; p++ {
			if _, err := e.ReadCommitted(p); err != nil {
				t.Fatalf("page %d after restart: %v", p, err)
			}
		}
	})
}
