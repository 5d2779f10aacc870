package pagestore

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// mustExists probes page id on a store expected to be live.
func mustExists(t *testing.T, s *Store, id PageID) bool {
	t.Helper()
	ok, err := s.Exists(id)
	if err != nil {
		t.Fatalf("Exists(%d): %v", id, err)
	}
	return ok
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := New(4096)
	data := []byte("hello recovery")
	if err := s.Write(7, data, 42); err != nil {
		t.Fatal(err)
	}
	got, ver, err := s.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || ver != 42 {
		t.Fatalf("got %q v%d", got, ver)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	s := New(64)
	if err := s.Write(1, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	a, _, _ := s.Read(1)
	a[0] = 99
	b, _, _ := s.Read(1)
	if b[0] != 1 {
		t.Fatal("Read returned aliased storage")
	}
}

func TestWriteCopiesInput(t *testing.T) {
	s := New(64)
	data := []byte{1, 2, 3}
	if err := s.Write(1, data, 0); err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	got, _, _ := s.Read(1)
	if got[0] != 1 {
		t.Fatal("Write aliased caller buffer")
	}
}

func TestMissingPage(t *testing.T) {
	s := New(64)
	if _, _, err := s.Read(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if mustExists(t, s, 5) {
		t.Fatal("absent page exists")
	}
}

func TestOversizedWriteRejected(t *testing.T) {
	s := New(4)
	if err := s.Write(1, []byte("too long"), 0); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestCrashAtMutationCutsPower(t *testing.T) {
	s := New(64)
	s.SetFaultHook(CrashAtMutation(3))
	if err := s.Write(1, []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3, []byte("c"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third write err = %v", err)
	}
	if !s.Crashed() {
		t.Fatal("store not crashed")
	}
	// All operations fail while crashed.
	if _, _, err := s.Read(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read err = %v", err)
	}
	// Reset restores service and preserves stable contents.
	s.Reset()
	got, _, err := s.Read(2)
	if err != nil || string(got) != "b" {
		t.Fatalf("after reset: %q %v", got, err)
	}
	if mustExists(t, s, 3) {
		t.Fatal("failed write became durable")
	}
}

func TestDelete(t *testing.T) {
	s := New(64)
	if err := s.Write(1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if mustExists(t, s, 1) {
		t.Fatal("page still exists")
	}
	if err := s.Delete(99); err != nil {
		t.Fatal("deleting absent page should be a no-op")
	}
}

func TestStats(t *testing.T) {
	s := New(64)
	_ = s.Write(1, []byte("x"), 0)
	_, _, _ = s.Read(1)
	_, _, _ = s.Read(1)
	r, w := s.Stats()
	if r != 2 || w != 1 {
		t.Fatalf("stats = %d reads %d writes", r, w)
	}
	if s.Pages() != 1 {
		t.Fatalf("pages = %d", s.Pages())
	}
}

func TestDurabilityProperty(t *testing.T) {
	// Property: whatever sequence of writes precedes a crash, every write
	// that returned nil is readable (with its exact contents) after Reset.
	f := func(values []uint8, cut uint8) bool {
		s := New(16)
		s.SetFaultHook(CrashAtMutation(int64(cut%16) + 1))
		acked := map[PageID][]byte{}
		for i, v := range values {
			id := PageID(i % 8)
			data := []byte{v, byte(i)}
			if err := s.Write(id, data, uint64(i)); err == nil {
				acked[id] = data
			}
		}
		s.Reset()
		for id, want := range acked {
			got, _, err := s.Read(id)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The store must be safe under concurrent readers and writers (the
	// functional engines hit it from many goroutines).
	s := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := PageID(g*1000 + i%16)
				if err := s.Write(id, []byte{byte(g), byte(i)}, uint64(i)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Read(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Pages() != 8*16 {
		t.Fatalf("pages = %d", s.Pages())
	}
}

func TestFaultHookCutsPowerAtWrite(t *testing.T) {
	s := New(64)
	var seen []Op
	s.SetFaultHook(func(op Op, id PageID, seq int64) bool {
		seen = append(seen, op)
		return op == OpWrite && seq == 3
	})
	if err := s.Write(1, []byte("a"), 0); err != nil { // seq 1
		t.Fatal(err)
	}
	if _, _, err := s.Read(1); err != nil { // seq 2
		t.Fatal(err)
	}
	if err := s.Write(2, []byte("b"), 0); !errors.Is(err, ErrCrashed) { // seq 3
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !s.Crashed() {
		t.Fatal("store not crashed after hook fired")
	}
	// Down means down: every operation fails, and the hook sees none of them.
	if _, _, err := s.Read(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed store: %v", err)
	}
	if len(seen) != 3 {
		t.Fatalf("hook saw %d ops, want 3", len(seen))
	}
	// The faulted write never landed.
	s.Reset()
	if mustExists(t, s, 2) {
		t.Fatal("crashed write became durable")
	}
	if !mustExists(t, s, 1) {
		t.Fatal("pre-crash write lost")
	}
}

func TestFaultHookSurvivesReset(t *testing.T) {
	s := New(64)
	fired := 0
	s.SetFaultHook(func(op Op, id PageID, seq int64) bool {
		if op == OpDelete {
			fired++
			return true
		}
		return false
	})
	if err := s.Delete(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	s.Reset()
	if err := s.Delete(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-Reset delete: %v", err)
	}
	if fired != 2 {
		t.Fatalf("hook fired %d times, want 2 (hook must survive Reset)", fired)
	}
	s.Reset()
	s.SetFaultHook(nil)
	if err := s.Delete(1); err != nil {
		t.Fatalf("delete after disarm: %v", err)
	}
}

func TestHookSeqMonotoneAcrossReset(t *testing.T) {
	s := New(64)
	var seqs []int64
	s.SetFaultHook(func(op Op, id PageID, seq int64) bool {
		seqs = append(seqs, seq)
		return false
	})
	if err := s.Write(1, []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if _, _, err := s.Read(1); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("seqs = %v, want [1 2]", seqs)
	}
}

// --- Regression tests for the crash-contract holes fixed in this change.
// Each of these fails against the previous pagestore: Exists ignored the
// crashed flag and never consulted the fault hook, Delete was neither
// counted as a mutation nor in the write stats, and Write's size check ran
// before the crashed check (outside any contract ordering).

func TestExistsRespectsCrash(t *testing.T) {
	s := New(64)
	if err := s.Write(1, []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(CrashAtMutation(1))
	if err := s.Write(2, []byte("b"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("injected crash: %v", err)
	}
	// Down means down — an existence probe is a stable-storage read.
	if _, err := s.Exists(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Exists on crashed store: %v, want ErrCrashed", err)
	}
	s.Reset()
	if !mustExists(t, s, 1) {
		t.Fatal("page lost across reset")
	}
}

func TestExistsFiresHookAndCountsRead(t *testing.T) {
	s := New(64)
	var ops []Op
	s.SetFaultHook(func(op Op, id PageID, seq int64) bool {
		ops = append(ops, op)
		return op == OpRead && seq == 2
	})
	if _, err := s.Exists(5); err != nil { // seq 1: survives
		t.Fatal(err)
	}
	if _, err := s.Exists(5); !errors.Is(err, ErrCrashed) { // seq 2: crashes
		t.Fatalf("hooked Exists: %v, want ErrCrashed", err)
	}
	if len(ops) != 2 || ops[0] != OpRead || ops[1] != OpRead {
		t.Fatalf("hook saw %v, want [OpRead OpRead]", ops)
	}
	s.Reset()
	s.SetFaultHook(nil)
	before, _ := s.Stats()
	mustExists(t, s, 5)
	if after, _ := s.Stats(); after != before+1 {
		t.Fatalf("Exists did not count as a read: %d -> %d", before, after)
	}
}

func TestCrashAtMutationCountsDeletes(t *testing.T) {
	s := New(64)
	for id := PageID(1); id <= 3; id++ {
		if err := s.Write(id, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.SetFaultHook(CrashAtMutation(2))
	if err := s.Delete(1); err != nil { // mutation 1: lands
		t.Fatal(err)
	}
	if err := s.Delete(2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("delete at the crash point: %v, want ErrCrashed", err)
	}
	if !s.Crashed() {
		t.Fatal("store not crashed after the hook fired on a delete")
	}
	s.Reset()
	if mustExists(t, s, 1) {
		t.Fatal("delete before the crash point did not stick")
	}
	if !mustExists(t, s, 2) {
		t.Fatal("crashed delete was applied")
	}
}

func TestDeleteCountsAsWrite(t *testing.T) {
	s := New(64)
	if err := s.Write(1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, w := s.Stats(); w != 2 {
		t.Fatalf("writes = %d after one write and one delete, want 2", w)
	}
}

func TestWriteChecksCrashBeforeSize(t *testing.T) {
	s := New(4)
	s.SetFaultHook(CrashAtMutation(1))
	if err := s.Write(1, []byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("injected crash: %v", err)
	}
	// An oversize attempt on a crashed store is a crashed-store error, not
	// a size error: the device is off, nothing examines the payload.
	if err := s.Write(2, []byte("way too long"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("oversize write on crashed store: %v, want ErrCrashed", err)
	}
}

func TestWriteFiresHookBeforeSizeCheck(t *testing.T) {
	s := New(4)
	fired := 0
	s.SetFaultHook(func(op Op, id PageID, seq int64) bool {
		if op == OpWrite {
			fired++
			return true
		}
		return false
	})
	// The attempt itself is a stable-storage operation: the hook sees it
	// (and may cut power there) even though the payload is oversized.
	if err := s.Write(1, []byte("way too long"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("hooked oversize write: %v, want ErrCrashed", err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

// TestPageTableMatchesMap drives the in-memory page table and a plain map
// through the same seeded mix of operations, over ids from every region
// the kernels use: data pages from 0, the shadow and differential engines'
// structures below negative bases, the WAL's meta pages at 1<<39 and its
// log chunks at stream<<40|seq. Each region's ids straddle block
// boundaries, and phases of deletes empty whole blocks. After every
// operation the two must agree on the page it touched and on the whole
// contents, with Keys ascending.
func TestPageTableMatchesMap(t *testing.T) {
	bases := []int64{0, 300, -1000000, -2000000, -3000000, -4000000, 1 << 39, 1<<40 | 1<<39, 1 << 40, 2<<40 | 200}
	rng := rand.New(rand.NewSource(1))
	tab := &Mem{}
	ref := map[PageID]Page{}
	for op := 0; op < 20000; op++ {
		id := PageID(bases[rng.Intn(len(bases))] + int64(rng.Intn(64)) - 32)
		puts := 6 // of ten ops; every other phase of 2,000 ops mostly deletes
		if op/2000%2 == 1 {
			puts = 1
		}
		switch k := rng.Intn(10); {
		case k < puts:
			data := make([]byte, rng.Intn(12))
			rng.Read(data)
			v := rng.Uint64()
			if err := tab.Put(id, data, v); err != nil {
				t.Fatal(err)
			}
			ref[id] = Page{Data: data, Version: v}
		case k < 8:
			if err := tab.Del(id); err != nil {
				t.Fatal(err)
			}
			delete(ref, id)
		case k < 9:
			_, want := ref[id]
			if got := tab.Has(id); got != want {
				t.Fatalf("op %d: Has(%d) = %v, want %v", op, id, got, want)
			}
		}
		data, v, ok := tab.Get(id)
		want, wantOK := ref[id]
		if ok != wantOK || !bytes.Equal(data, want.Data) || v != want.Version {
			t.Fatalf("op %d: Get(%d) = %x, %d, %v; want %x, %d, %v", op, id, data, v, ok, want.Data, want.Version, wantOK)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tab.Len(), len(ref))
		}
		keys := tab.Keys()
		if len(keys) != len(ref) {
			t.Fatalf("op %d: %d keys, want %d", op, len(keys), len(ref))
		}
		for i, id := range keys {
			if i > 0 && keys[i-1] >= id {
				t.Fatalf("op %d: Keys not ascending: %d before %d", op, keys[i-1], id)
			}
			if _, ok := ref[id]; !ok {
				t.Fatalf("op %d: Keys lists %d, which the map lacks", op, id)
			}
		}
	}
}
