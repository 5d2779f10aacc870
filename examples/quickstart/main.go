// Quickstart: simulate the paper's database machine with and without
// parallel logging and print the two headline metrics, then regenerate the
// paper's Table 2.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/recovery/logging"
)

func main() {
	// The paper's standard machine: 25 query processors, 100 cache frames,
	// 2 data disks, transactions of 1..250 pages updating 20% of what they
	// read. Scaled to 12 transactions so the example runs instantly.
	cfg := machine.DefaultConfig()
	cfg.NumTxns = 12

	bare, err := machine.Run(cfg, nil) // nil model: the bare machine
	if err != nil {
		log.Fatal(err)
	}
	logged, err := machine.Run(cfg, logging.New(logging.Config{LogProcessors: 1}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Conventional disks, random transactions:")
	fmt.Printf("  bare machine:     %6.1f ms/page, %8.1f ms completion\n",
		bare.ExecPerPageMs, bare.MeanCompletionMs)
	fmt.Printf("  parallel logging: %6.1f ms/page, %8.1f ms completion (log disk %.0f%% busy)\n",
		logged.ExecPerPageMs, logged.MeanCompletionMs, logged.Extra["log.diskUtil"]*100)
	fmt.Println()

	// Any of the paper's tables can be regenerated directly.
	tab, err := experiments.Run("table2", experiments.Options{NumTxns: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tab.Render())
}
