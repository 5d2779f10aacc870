// Package repro's benchmark harness: one testing.B benchmark per table of
// the paper's evaluation (Tables 1-12) plus the Section 4.1.3 bandwidth
// study, and microbenchmarks of the functional recovery engines. Each table
// benchmark regenerates the full table per iteration (at a reduced
// transaction load so the suite completes quickly); run with
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/pagestore"
	"repro/internal/recovery/logging"
	"repro/internal/server"
	"repro/internal/wal"
)

// benchOpt keeps table regeneration fast; shapes are unchanged.
var benchOpt = experiments.Options{NumTxns: 8}

func benchTable(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable01 regenerates Table 1 (impact of logging).
func BenchmarkTable01(b *testing.B) { benchTable(b, "table1") }

// BenchmarkTable02 regenerates Table 2 (log disk utilization).
func BenchmarkTable02(b *testing.B) { benchTable(b, "table2") }

// BenchmarkTable03 regenerates Table 3 (parallel physical logging sweep).
func BenchmarkTable03(b *testing.B) { benchTable(b, "table3") }

// BenchmarkTable04 regenerates Table 4 (shadow mechanism impact).
func BenchmarkTable04(b *testing.B) { benchTable(b, "table4") }

// BenchmarkTable05 regenerates Table 5 (data/page-table disk utilization).
func BenchmarkTable05(b *testing.B) { benchTable(b, "table5") }

// BenchmarkTable06 regenerates Table 6 (page-table buffer size).
func BenchmarkTable06(b *testing.B) { benchTable(b, "table6") }

// BenchmarkTable07 regenerates Table 7 (sequential placement/overwriting).
func BenchmarkTable07(b *testing.B) { benchTable(b, "table7") }

// BenchmarkTable08 regenerates Table 8 (random thru-PT vs overwriting).
func BenchmarkTable08(b *testing.B) { benchTable(b, "table8") }

// BenchmarkTable09 regenerates Table 9 (differential file impact).
func BenchmarkTable09(b *testing.B) { benchTable(b, "table9") }

// BenchmarkTable10 regenerates Table 10 (output fraction).
func BenchmarkTable10(b *testing.B) { benchTable(b, "table10") }

// BenchmarkTable11 regenerates Table 11 (differential file size).
func BenchmarkTable11(b *testing.B) { benchTable(b, "table11") }

// BenchmarkTable12 regenerates Table 12 (grand comparison).
func BenchmarkTable12(b *testing.B) { benchTable(b, "table12") }

// BenchmarkBandwidth regenerates the Section 4.1.3 interconnect study.
func BenchmarkBandwidth(b *testing.B) { benchTable(b, "bandwidth") }

// BenchmarkBareMachine measures one bare-machine simulation per iteration
// per configuration (the ablation baseline for everything else).
func BenchmarkBareMachine(b *testing.B) {
	for _, c := range []struct {
		name     string
		seq, par bool
	}{
		{"ConvRandom", false, false},
		{"ParSeq", true, true},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.NumTxns = 8
			cfg.Workload.Sequential = c.seq
			cfg.ParallelDisks = c.par
			for i := 0; i < b.N; i++ {
				if _, err := machine.Run(cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogProcessorSelection ablates the four selection algorithms on
// the Table 3 machine (one simulation per iteration).
func BenchmarkLogProcessorSelection(b *testing.B) {
	for _, sel := range []logging.Selection{logging.Cyclic, logging.Random, logging.QpNoMod, logging.TranNoMod} {
		sel := sel
		b.Run(sel.String(), func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.QueryProcessors = 75
			cfg.CacheFrames = 150
			cfg.ParallelDisks = true
			cfg.Workload.Sequential = true
			cfg.NumTxns = 8
			for i := 0; i < b.N; i++ {
				_, err := machine.Run(cfg, logging.New(logging.Config{
					Mode: logging.Physical, LogProcessors: 3, Selection: sel,
				}))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALStreams measures functional commit throughput as the number
// of parallel log streams grows — the functional analogue of Table 3.
func BenchmarkWALStreams(b *testing.B) {
	for _, streams := range []int{1, 2, 4, 8} {
		streams := streams
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			e := engine.NewWAL(wal.Config{Streams: streams, Selection: wal.PageMod})
			for p := int64(0); p < 64; p++ {
				if err := e.Load(p, make([]byte, 256)); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := e.Update(func(tx *engine.Txn) error {
					return tx.Write(int64(i%64), buf)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCommit compares the per-commit cost of every functional
// recovery engine the server builds on an identical single-page update.
func BenchmarkEngineCommit(b *testing.B) {
	for _, arch := range server.Architectures() {
		arch := arch
		b.Run(arch, func(b *testing.B) {
			e, err := server.NewEngine(arch)
			if err != nil {
				b.Fatal(err)
			}
			for p := int64(0); p < 16; p++ {
				if err := e.Load(p, make([]byte, 256)); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := e.Update(func(tx *engine.Txn) error {
					return tx.Write(int64(i%16), buf)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures restart-recovery time after a workload, per
// engine (the cost the paper trades against normal-case efficiency).
func BenchmarkRecovery(b *testing.B) {
	b.Run("wal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := pagestore.New(4096)
			e, _ := engine.NewWALOn(store, wal.Config{Streams: 2, PoolPages: 8})
			for p := int64(0); p < 32; p++ {
				if err := e.Load(p, make([]byte, 256)); err != nil {
					b.Fatal(err)
				}
			}
			for j := 0; j < 100; j++ {
				if err := e.Update(func(tx *engine.Txn) error {
					return tx.Write(int64(j%32), make([]byte, 256))
				}); err != nil {
					b.Fatal(err)
				}
			}
			e.Crash()
			b.StartTimer()
			if err := e.Recover(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shadow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := engine.NewShadowOn(pagestore.New(4096))
			if err != nil {
				b.Fatal(err)
			}
			for p := int64(0); p < 32; p++ {
				if err := e.Load(p, make([]byte, 256)); err != nil {
					b.Fatal(err)
				}
			}
			for j := 0; j < 100; j++ {
				if err := e.Update(func(tx *engine.Txn) error {
					return tx.Write(int64(j%32), make([]byte, 256))
				}); err != nil {
					b.Fatal(err)
				}
			}
			e.Crash()
			b.StartTimer()
			if err := e.Recover(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
