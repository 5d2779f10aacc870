// Parallellog: the paper's headline idea — collecting recovery data in
// parallel on multiple log processors — demonstrated on both halves of this
// repository.
//
// First the simulation: the Table 3 machine (75 query processors, parallel-
// access data disks, physical logging) swept over 1..5 log disks and the
// four log-processor selection algorithms.
//
// Then the functional engine: real transactions against the WAL engine with
// 1..4 parallel log streams under its default page-mod selection, showing
// that recovery merges the distributed streams correctly no matter how the
// records were scattered.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/recovery/logging"
	"repro/internal/wal"
)

func main() {
	simulated()
	functional()
}

func simulated() {
	fmt.Println("== simulated: physical logging on the Table 3 machine ==")
	cfg := machine.DefaultConfig()
	cfg.QueryProcessors = 75
	cfg.CacheFrames = 150
	cfg.ParallelDisks = true
	cfg.Workload.Sequential = true
	cfg.NumTxns = 16

	bare, err := machine.Run(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %8s %10s\n", "log disks", "ms/page", "completion")
	fmt.Printf("%-12s %8.1f %10.1f\n", "none", bare.ExecPerPageMs, bare.MeanCompletionMs)
	for n := 1; n <= 5; n++ {
		res, err := machine.Run(cfg, logging.New(logging.Config{
			Mode:          logging.Physical,
			LogProcessors: n,
		}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12d %8.1f %10.1f\n", n, res.ExecPerPageMs, res.MeanCompletionMs)
	}

	fmt.Println("\nselection algorithms with 5 log disks:")
	for _, sel := range []logging.Selection{logging.Cyclic, logging.Random, logging.QpNoMod, logging.TranNoMod} {
		res, err := machine.Run(cfg, logging.New(logging.Config{
			Mode:          logging.Physical,
			LogProcessors: 5,
			Selection:     sel,
		}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %6.1f ms/page\n", sel, res.ExecPerPageMs)
	}
}

func functional() {
	fmt.Println("\n== functional: WAL engine with parallel log streams ==")
	for _, streams := range []int{1, 2, 4} {
		cfg := wal.Config{Streams: streams}
		eng := engine.NewWAL(cfg)
		for p := int64(0); p < 32; p++ {
			if err := eng.Load(p, []byte("initial")); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			i := i
			err := eng.Update(func(tx *engine.Txn) error {
				return tx.Write(int64(i%32), []byte(fmt.Sprintf("update-%d", i)))
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		eng.Crash()
		if err := eng.Recover(); err != nil {
			log.Fatal(err)
		}
		got, err := eng.ReadCommitted(int64(199 % 32))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d stream(s), %v: 200 commits scattered, recovered; last page = %q\n",
			streams, cfg.Selection, got)
	}
	fmt.Println("recovery never merges the streams into one physical log — only by LSN at restart,")
	fmt.Println("exactly as the paper's parallel logging architecture prescribes.")
}
