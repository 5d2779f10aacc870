package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPaperTransactions runs the paper's transaction model on the real
// kernels: 200 transactions over 2,000 pages (seed 1985), each reading its
// reference string and writing a whole 4 KiB page to each page of its
// write set, through Build on memory stores with a 100-page WAL pool. Every
// architecture must commit all 200, and after a crash and restart every
// written page must hold its last committed image. It logs the data and
// log store writes each architecture made per updated page, and gates
// neither.
func TestPaperTransactions(t *testing.T) {
	txns, err := workload.Generate(200, workload.DefaultConfig(2000), sim.NewRNG(1985))
	if err != nil {
		t.Fatal(err)
	}
	image := func(txn int, p workload.PageID) []byte {
		b := bytes.Repeat([]byte{byte(txn)}, 4096)
		binary.BigEndian.PutUint64(b, uint64(txn))
		binary.BigEndian.PutUint64(b[8:], uint64(p))
		return b
	}
	for _, arch := range Architectures() {
		t.Run(arch, func(t *testing.T) {
			e, stores := memBuild(t, arch, 100)
			model := map[workload.PageID][]byte{}
			for _, txn := range txns {
				err := e.Update(func(tx *Txn) error {
					for _, p := range txn.Reads {
						if _, err := tx.Read(int64(p)); err != nil {
							return err
						}
					}
					for _, p := range txn.SortedWrites() {
						if err := tx.Write(int64(p), image(txn.ID, p)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("txn %d of %d: %v", txn.ID, len(txns), err)
				}
				for p := range txn.Writes {
					model[p] = image(txn.ID, p)
				}
			}
			updated := float64(workload.TotalWrites(txns))
			_, data := stores[0].Stats()
			var log int64
			if len(stores) > 1 {
				_, log = stores[1].Stats()
			}
			t.Logf("%-12s %.2f data and %.2f log store writes per updated page", arch,
				float64(data)/updated, float64(log)/updated)

			e.Crash()
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			for p, want := range model {
				if got, err := e.ReadCommitted(int64(p)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("page %d after restart: %d bytes, %v; want txn %d's image",
						p, len(got), err, binary.BigEndian.Uint64(want))
				}
			}
		})
	}
}
