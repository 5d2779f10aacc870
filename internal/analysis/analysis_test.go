package analysis

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/recovery/difffile"
	"repro/internal/recovery/logging"
)

// TestBarePredictionsBracketSimulation cross-validates the discrete-event
// simulator against the operational-law bounds: measured execution time per
// page must sit at or above the bottleneck bound (queueing can only add
// time) and within 60% of it (the machine pipelines well).
func TestBarePredictionsBracketSimulation(t *testing.T) {
	cases := []struct {
		name     string
		seq, par bool
	}{
		{"Conventional-Random", false, false},
		{"Parallel-Random", false, true},
		{"Conventional-Sequential", true, false},
		{"Parallel-Sequential", true, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.NumTxns = 20
			cfg.Workload.Sequential = c.seq
			cfg.ParallelDisks = c.par
			pred := PredictBare(cfg)
			res, err := machine.Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := res.ExecPerPageMs
			if got < pred.ExecPerPage*0.92 {
				t.Fatalf("simulation (%.2f) beat the bottleneck bound (%.2f): model violation",
					got, pred.ExecPerPage)
			}
			if got > pred.ExecPerPage*1.6 {
				t.Fatalf("simulation (%.2f) far above the bound (%.2f): pipeline broken?",
					got, pred.ExecPerPage)
			}
			t.Logf("%s: predicted >= %.2f ms/page (disk-bound=%v), simulated %.2f",
				c.name, pred.ExecPerPage, pred.DiskBound, got)
		})
	}
}

func TestBoundResourceIdentification(t *testing.T) {
	// Random configurations are disk bound; parallel-sequential is QP bound
	// at 25 processors (the Table 3 motivation for going to 75).
	cfg := machine.DefaultConfig()
	if p := PredictBare(cfg); !p.DiskBound {
		t.Fatalf("conventional-random should be disk bound: %+v", p)
	}
	cfg.ParallelDisks = true
	cfg.Workload.Sequential = true
	if p := PredictBare(cfg); p.DiskBound {
		t.Fatalf("parallel-sequential should be QP bound: %+v", p)
	}
	// With 75 QPs it flips back toward the disks.
	cfg.QueryProcessors = 75
	p75 := PredictBare(cfg)
	p25 := func() Prediction {
		c := cfg
		c.QueryProcessors = 25
		return PredictBare(c)
	}()
	if p75.ExecPerPage >= p25.ExecPerPage {
		t.Fatalf("75 QPs (%.2f) should beat 25 (%.2f)", p75.ExecPerPage, p25.ExecPerPage)
	}
}

func TestLogUtilizationPrediction(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumTxns = 20
	pred := PredictLogUtilization(cfg, 400, 4096)
	res, err := machine.Run(cfg, logging.New(logging.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Extra["log.diskUtil"]
	// Commit forces write partial pages, so the measurement can exceed the
	// steady-state prediction; both must agree it is a nearly idle disk.
	if pred > 0.1 || got > 0.1 {
		t.Fatalf("log disk should be nearly idle: predicted %.3f, simulated %.3f", pred, got)
	}
	if got < pred/2 || got > pred*6 {
		t.Fatalf("simulated utilization %.3f too far from predicted %.3f", got, pred)
	}
}

func TestBasicDiffPrediction(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.NumTxns = 12
	dcfg := difffile.DefaultConfig()
	pred := PredictBasicDiffExec(cfg, dcfg.DiffFrac, difffile.TuplesPage, difffile.CompareCPU)
	res, err := machine.Run(cfg, difffile.New(difffile.Config{Strategy: difffile.Basic}))
	if err != nil {
		t.Fatal(err)
	}
	got := res.ExecPerPageMs
	if got < pred*0.7 || got > pred*1.5 {
		t.Fatalf("basic strategy: predicted ~%.1f ms/page, simulated %.1f", pred, got)
	}
}
