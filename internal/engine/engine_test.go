package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/wal"
)

// allEngines builds one engine per recovery architecture through Build,
// and under "wal" a two-stream WAL, which no architecture runs.
func allEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{"wal": NewWAL(wal.Config{Streams: 2, Selection: wal.PageMod})}
	for _, arch := range Architectures() {
		out[arch], _ = memBuild(t, arch, 0)
	}
	return out
}

func enc(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func dec(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func TestCommitAbortAllEngines(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := e.Load(1, enc(100)); err != nil {
				t.Fatal(err)
			}
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			v, err := tx.Read(1)
			if err != nil || dec(v) != 100 {
				t.Fatalf("read %v %v", v, err)
			}
			if err := tx.Write(1, enc(150)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Abort leaves no trace.
			tx2, _ := e.Begin()
			if err := tx2.Write(1, enc(0)); err != nil {
				t.Fatal(err)
			}
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
			got, err := e.ReadCommitted(1)
			if err != nil || dec(got) != 150 {
				t.Fatalf("final = %v %v", got, err)
			}
			// Using a finished transaction fails.
			if _, err := tx2.Read(1); !errors.Is(err, ErrDone) {
				t.Fatalf("read after abort: %v", err)
			}
		})
	}
}

func TestIsolationNoDirtyReads(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := e.Load(1, enc(1)); err != nil {
				t.Fatal(err)
			}
			writer, _ := e.Begin()
			if err := writer.Write(1, enc(2)); err != nil {
				t.Fatal(err)
			}
			readerDone := make(chan int64, 1)
			go func() {
				reader, err := e.Begin()
				if err != nil {
					readerDone <- -1
					return
				}
				v, err := reader.Read(1) // blocks on the X lock
				if err != nil {
					readerDone <- -1
					return
				}
				_ = reader.Commit()
				readerDone <- dec(v)
			}()
			// The reader must not return while the writer holds the lock.
			select {
			case v := <-readerDone:
				t.Fatalf("dirty read returned %d before writer finished", v)
			default:
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			if v := <-readerDone; v != 2 {
				t.Fatalf("reader saw %d, want committed 2", v)
			}
		})
	}
}

func TestBankTransfersConserveMoney(t *testing.T) {
	const accounts = 8
	const workers = 4
	const transfers = 30
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			for a := int64(0); a < accounts; a++ {
				if err := e.Load(a, enc(1000)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < transfers; i++ {
						from := int64((w + i) % accounts)
						to := int64((w*3 + i*7 + 1) % accounts)
						if from == to {
							continue
						}
						err := e.Update(func(tx *Txn) error {
							// Ascending lock order avoids deadlocks; the
							// deadlock test exercises the other path.
							a, b := from, to
							if a > b {
								a, b = b, a
							}
							va, err := tx.Read(a)
							if err != nil {
								return err
							}
							vb, err := tx.Read(b)
							if err != nil {
								return err
							}
							if err := tx.Write(a, enc(dec(va)-10)); err != nil {
								return err
							}
							return tx.Write(b, enc(dec(vb)+10))
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			var total int64
			for a := int64(0); a < accounts; a++ {
				v, err := e.ReadCommitted(a)
				if err != nil {
					t.Fatal(err)
				}
				total += dec(v)
			}
			if total != accounts*1000 {
				t.Fatalf("money not conserved: %d", total)
			}
		})
	}
}

func TestDeadlockVictimRetried(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := e.Load(1, enc(0)); err != nil {
				t.Fatal(err)
			}
			if err := e.Load(2, enc(0)); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			// Two workers locking in opposite orders many times: deadlocks
			// must be broken and every update must eventually commit.
			for w := 0; w < 2; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					first, second := int64(1), int64(2)
					if w == 1 {
						first, second = second, first
					}
					for i := 0; i < 20; i++ {
						err := e.Update(func(tx *Txn) error {
							v1, err := tx.Read(first)
							if err != nil {
								return err
							}
							if err := tx.Write(first, enc(dec(v1)+1)); err != nil {
								return err
							}
							v2, err := tx.Read(second)
							if err != nil {
								return err
							}
							return tx.Write(second, enc(dec(v2)+1))
						})
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			v1, _ := e.ReadCommitted(1)
			v2, _ := e.ReadCommitted(2)
			if dec(v1) != 40 || dec(v2) != 40 {
				t.Fatalf("lost updates: %d, %d (want 40, 40)", dec(v1), dec(v2))
			}
		})
	}
}

func TestCrashRecoveryAllEngines(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			for a := int64(0); a < 4; a++ {
				if err := e.Load(a, enc(100)); err != nil {
					t.Fatal(err)
				}
			}
			// Commit one transfer.
			err := e.Update(func(tx *Txn) error {
				if err := tx.Write(0, enc(50)); err != nil {
					return err
				}
				return tx.Write(1, enc(150))
			})
			if err != nil {
				t.Fatal(err)
			}
			// Leave another in flight.
			dangling, _ := e.Begin()
			if err := dangling.Write(2, enc(0)); err != nil {
				t.Fatal(err)
			}
			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			want := map[int64]int64{0: 50, 1: 150, 2: 100, 3: 100}
			for a, w := range want {
				v, err := e.ReadCommitted(a)
				if err != nil {
					t.Fatal(err)
				}
				if dec(v) != w {
					t.Fatalf("page %d = %d, want %d", a, dec(v), w)
				}
			}
		})
	}
}

func TestStatsAndNames(t *testing.T) {
	for _, e := range allEngines(t) {
		if e.Name() == "" {
			t.Fatal("empty engine name")
		}
		if err := e.Load(1, enc(5)); err != nil {
			t.Fatal(err)
		}
		if err := e.Update(func(tx *Txn) error { return tx.Write(1, enc(6)) }); err != nil {
			t.Fatal(err)
		}
		c, _, _ := e.Stats()
		if c != 1 {
			t.Fatalf("%s: commits = %d", e.Name(), c)
		}
	}
}

func TestUpdateAbortsOnError(t *testing.T) {
	e := NewWAL(wal.Config{})
	if err := e.Load(1, enc(9)); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	err := e.Update(func(tx *Txn) error {
		if err := tx.Write(1, enc(0)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, _ := e.ReadCommitted(1)
	if dec(v) != 9 {
		t.Fatalf("failed Update leaked: %d", dec(v))
	}
	_, aborts, _ := e.Stats()
	if aborts != 1 {
		t.Fatalf("aborts = %d", aborts)
	}
}

// TestWriteAllIsAllOrNothing: a write set commits whole on every engine, and
// a set the kernel refuses part of leaves nothing behind and the
// transaction aborted.
func TestWriteAllIsAllOrNothing(t *testing.T) {
	for name, e := range allEngines(t) {
		t.Run(name, func(t *testing.T) {
			for p := int64(1); p <= 2; p++ {
				if err := e.Load(p, enc(100)); err != nil {
					t.Fatal(err)
				}
			}
			tx, _ := e.Begin()
			if err := tx.WriteAll([]PageWrite{{Page: 1, Data: enc(90)}, {Page: 2, Data: enc(110)}}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for p, want := range map[int64]int64{1: 90, 2: 110} {
				if got, err := e.ReadCommitted(p); err != nil || dec(got) != want {
					t.Fatalf("page %d = %d (err %v), want %d", p, dec(got), err, want)
				}
			}
		})
	}

	e := NewWAL(wal.Config{})
	if err := e.Load(1, enc(100)); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.Begin()
	if err := tx.WriteAll([]PageWrite{{Page: 1, Data: enc(5)}, {Page: 2, Data: make([]byte, 1<<16)}}); err == nil {
		t.Fatal("WriteAll accepted a write larger than a page")
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("commit after a failed WriteAll: %v, want ErrDone", err)
	}
	if got, _ := e.ReadCommitted(1); dec(got) != 100 {
		t.Fatalf("failed WriteAll left page 1 = %d, want 100", dec(got))
	}
}
