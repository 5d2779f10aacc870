// Comparison: the paper's bottom line (Table 12) regenerated on a custom
// machine, followed by a crash drill across every functional recovery
// engine — the same application survives a power failure under all six
// architectures.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/recovery/difffile"
	"repro/internal/recovery/logging"
	"repro/internal/recovery/shadow"
	"repro/internal/shadoweng"
	"repro/internal/wal"
)

func main() {
	simulatedComparison()
	functionalDrill()
}

func simulatedComparison() {
	fmt.Println("== simulated: all recovery architectures on a custom machine ==")
	// A beefier machine than the paper's: 50 query processors, 4 data
	// disks, 200 frames.
	cfg := machine.DefaultConfig()
	cfg.QueryProcessors = 50
	cfg.DataDisks = 4
	cfg.CacheFrames = 200
	cfg.MPL = 4
	cfg.NumTxns = 16

	models := []struct {
		name  string
		model machine.Model
	}{
		{"bare machine", nil},
		{"parallel logging", logging.New(logging.Config{})},
		{"shadow thru-PT", shadow.NewPageTable(shadow.Config{})},
		{"shadow scrambled", shadow.NewPageTable(shadow.Config{Scrambled: true})},
		{"version selection", shadow.NewVersion(shadow.Config{})},
		{"overwrite no-undo", shadow.NewOverwrite(shadow.Config{}, true)},
		{"differential files", difffile.New(difffile.Config{})},
	}
	fmt.Printf("%-20s %10s %12s %8s %8s\n", "architecture", "ms/page", "completion", "qp util", "disk")
	for _, m := range models {
		res, err := machine.Run(cfg, m.model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %10.1f %12.1f %8.2f %8.2f\n",
			m.name, res.ExecPerPageMs, res.MeanCompletionMs, res.QPUtil, res.DataDiskUtil)
	}

	// And the paper's own Table 12 at reduced scale:
	fmt.Println("\npaper's Table 12 (reduced load):")
	tab, err := experiments.Run("table12", experiments.Options{NumTxns: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tab.Render())
}

func functionalDrill() {
	fmt.Println("== functional: the same crash drill under every engine ==")
	shadowEng, err := engine.NewShadow()
	if err != nil {
		log.Fatal(err)
	}
	vsEng, err := engine.NewVersionSelect()
	if err != nil {
		log.Fatal(err)
	}
	engines := []*engine.Engine{
		engine.NewWAL(wal.Config{Streams: 2, Selection: wal.PageMod}),
		shadowEng,
		engine.NewOverwrite(shadoweng.NoUndo),
		engine.NewOverwrite(shadoweng.NoRedo),
		vsEng,
		engine.NewDiff(),
	}
	for _, e := range engines {
		if err := e.Load(1, []byte("before")); err != nil {
			log.Fatal(err)
		}
		// One committed update, one in-flight loser, then power failure.
		if err := e.Update(func(tx *engine.Txn) error {
			return tx.Write(1, []byte("committed"))
		}); err != nil {
			log.Fatal(err)
		}
		loser, err := e.Begin()
		if err != nil {
			log.Fatal(err)
		}
		if err := loser.Write(1, []byte("loser")); err != nil {
			log.Fatal(err)
		}
		e.Crash()
		if err := e.Recover(); err != nil {
			log.Fatal(err)
		}
		got, err := e.ReadCommitted(1)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if string(got) != "committed" {
			status = fmt.Sprintf("FAILED (%q)", got)
		}
		fmt.Printf("  %-28s %s\n", e.Name(), status)
	}
}
