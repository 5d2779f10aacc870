package experiments

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/runpool"
)

// TestJobsEquivalence is the differential acceptance test for the run-pool
// wiring: every experiment, rendered both ways, must be byte-identical at
// jobs=1 (a plain sequential loop) and jobs=8. Worker count may only change
// wall-clock time — determinism lives in each cell's seeded state, never in
// scheduling order.
func TestJobsEquivalence(t *testing.T) {
	render := func(jobs int) string {
		t.Helper()
		var sb strings.Builder
		for _, id := range IDs() {
			tab, err := Run(id, Options{NumTxns: 8, Seed: 77, Jobs: jobs})
			if err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, id, err)
			}
			sb.WriteString(tab.Render())
			sb.WriteString(tab.RenderMarkdown())
		}
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq == par {
		return
	}
	sl, pl := strings.Split(seq, "\n"), strings.Split(par, "\n")
	n := len(sl)
	if len(pl) < n {
		n = len(pl)
	}
	for i := 0; i < n; i++ {
		if sl[i] != pl[i] {
			t.Fatalf("jobs=1 and jobs=8 output diverged at line %d:\n  jobs=1: %q\n  jobs=8: %q",
				i+1, sl[i], pl[i])
		}
	}
	t.Fatalf("jobs=1 and jobs=8 output lengths diverged: %d vs %d lines", len(sl), len(pl))
}

// TestObsSnapshotJobsEquivalence pins the deepest observable: the full obs
// metrics registry of each simulated machine, rendered to JSON, must be
// byte-identical whether the runs were fanned out across 1 or 8 workers.
// Each run owns its own registry, so worker count cannot leak into any
// counter, histogram, or gauge.
func TestObsSnapshotJobsEquivalence(t *testing.T) {
	snapshots := func(jobs int) []string {
		t.Helper()
		out, err := runpool.Map(jobs, len(fourConfigs), func(i int) (string, error) {
			cfg := fourConfigs[i].config(Options{NumTxns: 6, Seed: 77})
			m, err := machine.New(cfg, nil)
			if err != nil {
				return "", err
			}
			if _, err := m.Run(); err != nil {
				return "", err
			}
			b, err := m.Metrics().Snapshot().JSON()
			return string(b), err
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return out
	}
	seq, par := snapshots(1), snapshots(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("obs snapshot %d differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s",
				i, seq[i], par[i])
		}
	}
}

// TestRunAllOrdered: RunAll fans tables out but must return them in ids
// order with per-table errors attributed.
func TestRunAllOrdered(t *testing.T) {
	ids := []string{"table2", "table1"}
	tabs, err := RunAll(ids, Options{NumTxns: 6, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].ID != "table2" || tabs[1].ID != "table1" {
		t.Fatalf("RunAll order wrong: %v", []string{tabs[0].ID, tabs[1].ID})
	}
	if _, err := RunAll([]string{"table1", "nope"}, Options{NumTxns: 6}); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("RunAll did not attribute the failing table: %v", err)
	}
}
