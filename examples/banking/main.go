// Banking: a concurrent account-transfer workload on the functional WAL
// engine, with a power failure injected mid-run. Demonstrates page-level
// two-phase locking, deadlock-victim retry, steal/no-force buffering, and
// restart recovery — total money is conserved through the crash.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"

	"repro/internal/engine"
	"repro/internal/pagestore"
	"repro/internal/wal"
)

const (
	accounts       = 16
	initialBalance = 1_000
	workers        = 8
	transfersEach  = 200
)

func enc(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func dec(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

func total(e *engine.Engine) int64 {
	var sum int64
	for a := int64(0); a < accounts; a++ {
		v, err := e.ReadCommitted(a)
		if err != nil {
			log.Fatal(err)
		}
		sum += dec(v)
	}
	return sum
}

func main() {
	store := pagestore.New(4096)
	eng, mgr := engine.NewWALOn(store, wal.Config{Streams: 4, Selection: wal.PageMod, PoolPages: 8})
	for a := int64(0); a < accounts; a++ {
		if err := eng.Load(a, enc(initialBalance)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("bank open: %d accounts x %d = %d total\n",
		accounts, initialBalance, total(eng))

	// Concurrent transfers; locks are taken in whatever order the transfer
	// needs, so deadlocks happen and are retried.
	var wg sync.WaitGroup
	var transferred, failed int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfersEach; i++ {
				from := int64((w*7 + i*3) % accounts)
				to := int64((w*11 + i*5 + 1) % accounts)
				if from == to {
					continue
				}
				err := eng.Update(func(tx *engine.Txn) error {
					vf, err := tx.Read(from)
					if err != nil {
						return err
					}
					if dec(vf) < 10 {
						return nil // insufficient funds; commit empty
					}
					vt, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, enc(dec(vf)-10)); err != nil {
						return err
					}
					return tx.Write(to, enc(dec(vt)+10))
				})
				mu.Lock()
				if err != nil {
					failed++
				} else {
					transferred++
				}
				mu.Unlock()
				if err != nil && !errors.Is(err, engine.ErrDeadlock) {
					return // store crashed under us
				}
			}
		}()
	}
	wg.Wait()

	commits, aborts, deadlocks := eng.Stats()
	fmt.Printf("ran %d transfers (%d failed) — %d commits, %d aborts, %d deadlock victims retried\n",
		transferred, failed, commits, aborts, deadlocks)
	fmt.Printf("balance before crash: %d\n", total(eng))

	// Leave one transfer in flight — it must be rolled back at restart.
	dangling, err := eng.Begin()
	if err != nil {
		log.Fatal(err)
	}
	v0, _ := dangling.Read(0)
	if err := dangling.Write(0, enc(dec(v0)-500)); err != nil {
		log.Fatal(err)
	}
	// Force the dirty page to disk so recovery has real undo work: touch
	// enough pages to evict it from the 8-page buffer pool.
	for a := int64(1); a < 10; a++ {
		if _, err := dangling.Read(a); err != nil {
			log.Fatal(err)
		}
	}

	// Pull the plug: buffer pool, lock table and unforced log tails vanish.
	fmt.Println("\n*** POWER FAILURE *** (one transfer of 500 still in flight)")
	eng.Crash()

	// Restart's cost is the stable I/O it does, counted by the stores.
	logs := mgr.LogStore()
	dataR, dataW := store.Stats()
	logR, logW := logs.Stats()
	if err := eng.Recover(); err != nil {
		log.Fatal(err)
	}
	dataR2, dataW2 := store.Stats()
	logR2, logW2 := logs.Stats()
	fmt.Printf("restart recovery: %d data reads, %d data writes, %d log reads, %d log writes across %d parallel log streams\n",
		dataR2-dataR, dataW2-dataW, logR2-logR, logW2-logW, 4)
	after := total(eng)
	fmt.Printf("balance after recovery: %d\n", after)
	if after != accounts*initialBalance {
		log.Fatalf("MONEY NOT CONSERVED: %d != %d", after, accounts*initialBalance)
	}
	fmt.Println("invariant holds: every committed transfer survived, every loser rolled back")
}
