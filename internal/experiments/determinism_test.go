package experiments

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/recovery/difffile"
	"repro/internal/recovery/logging"
	"repro/internal/recovery/shadow"
)

// TestSimulationDeterminism runs every recovery model twice with the same
// seed and demands bit-identical results — the property that makes the
// regenerated tables reproducible. The two runs' full metrics registries
// must match byte for byte; every Result.Extra statistic is mirrored there
// as a model.<name> stat, so the comparison covers each model's own
// numbers in both directions.
func TestSimulationDeterminism(t *testing.T) {
	models := []struct {
		name string
		mk   func() machine.Model
	}{
		{"bare", func() machine.Model { return nil }},
		{"logging", func() machine.Model { return logging.New(logging.Config{}) }},
		{"physical", func() machine.Model { return logging.New(logging.Config{Mode: logging.Physical, LogProcessors: 2}) }},
		{"shadow", func() machine.Model { return shadow.NewPageTable(shadow.Config{}) }},
		{"scrambled", func() machine.Model { return shadow.NewPageTable(shadow.Config{Scrambled: true}) }},
		{"version", func() machine.Model { return shadow.NewVersion(shadow.Config{}) }},
		{"noundo", func() machine.Model { return shadow.NewOverwrite(shadow.Config{}, true) }},
		{"noredo", func() machine.Model { return shadow.NewOverwrite(shadow.Config{}, false) }},
		{"difffile", func() machine.Model { return difffile.New(difffile.Config{}) }},
	}
	for _, md := range models {
		t.Run(md.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.NumTxns = 10
			cfg.Workload.MaxPages = 80
			cfg.AbortFrac = 0.2
			run := func() (*machine.Result, []byte) {
				t.Helper()
				m, err := machine.New(cfg, md.mk())
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				snap, err := m.Metrics().Snapshot().JSON()
				if err != nil {
					t.Fatal(err)
				}
				return res, snap
			}
			a, snapA := run()
			b, snapB := run()
			if a.SimTime != b.SimTime {
				t.Fatalf("sim time diverged: %v vs %v", a.SimTime, b.SimTime)
			}
			if a.PagesProcessed != b.PagesProcessed || a.ExecPerPageMs != b.ExecPerPageMs ||
				a.MeanCompletionMs != b.MeanCompletionMs {
				t.Fatalf("metrics diverged: %+v vs %+v", a, b)
			}
			if !bytes.Equal(snapA, snapB) {
				t.Fatalf("metrics snapshots differ:\n--- first\n%s\n--- second\n%s", snapA, snapB)
			}
		})
	}
}
