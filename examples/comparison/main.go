// Comparison: the paper's bottom line (Table 12) regenerated on a custom
// machine, after a head-to-head run of every simulated recovery
// architecture. The functional counterpart — every crash point of all
// seven real engines, recovered and audited — is `go run ./cmd/crashsweep`.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/recovery/difffile"
	"repro/internal/recovery/logging"
	"repro/internal/recovery/shadow"
)

func main() {
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
