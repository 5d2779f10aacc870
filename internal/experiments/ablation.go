package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/pagestore"
	"repro/internal/recovery/logging"
	"repro/internal/runpool"
)

// The experiments in this file go beyond the paper's tables: they ablate
// the calibration choices DESIGN.md documents (multiprogramming level,
// cache size, log-fragment size), probe a hot-spot workload the paper
// leaves open, and measure the cost the paper explicitly trades away —
// recovery time itself — on the functional engines.

func init() {
	registry["mpl"] = MPLSweep
	registry["frames"] = FrameSweep
	registry["fragsize"] = FragmentSweep
	registry["writefrac"] = WriteFracSweep
	registry["skew"] = SkewSweep
	registry["funcrecovery"] = FuncRecovery
}

// WriteFracSweep ablates the write-set fraction (the paper fixes it at 20%
// of the read set) under parallel logging.
func WriteFracSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:      "writefrac",
		Title:   "Ablation: write-set fraction (parallel logging, 1 log disk)",
		Columns: []string{"Configuration", "10% e/p", "20% e/p", "40% e/p", "40% log util"},
		Notes:   "more updates mean more write-backs and more log traffic; the paper's 20% keeps the log disk nearly idle",
	}
	fracs := []float64{0.10, 0.20, 0.40}
	res, err := runCells(opt, len(fourConfigs)*len(fracs), func(i int) (machine.Config, machine.Model) {
		cfg := fourConfigs[i/len(fracs)].config(opt)
		cfg.Workload.WriteFrac = fracs[i%len(fracs)]
		return cfg, logging.New(logging.Config{})
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range fourConfigs {
		row := []string{c.Name}
		for fi := range fracs {
			row = append(row, ms(res[ci*len(fracs)+fi].ExecPerPageMs))
		}
		lastUtil := res[ci*len(fracs)+len(fracs)-1].Extra["log.diskUtil"]
		row = append(row, fmt.Sprintf("%.2f", lastUtil))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// MPLSweep ablates the multiprogramming level, the main free parameter of
// our calibration (the paper never states its value; MPL=3 matches its
// completion times).
func MPLSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:      "mpl",
		Title:   "Ablation: multiprogramming level (bare machine)",
		Columns: []string{"Configuration", "MPL=1", "MPL=2", "MPL=3", "MPL=4", "MPL=6"},
		Notes:   "exec time per page; MPL=3 reproduces the paper's completion times",
	}
	mpls := []int{1, 2, 3, 4, 6}
	res, err := runCells(opt, len(fourConfigs)*len(mpls), func(i int) (machine.Config, machine.Model) {
		cfg := fourConfigs[i/len(mpls)].config(opt)
		cfg.MPL = mpls[i%len(mpls)]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range fourConfigs {
		row := []string{c.Name}
		for mi := range mpls {
			row = append(row, ms(res[ci*len(mpls)+mi].ExecPerPageMs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FrameSweep ablates the disk-cache size around the paper's 100 frames.
func FrameSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:      "frames",
		Title:   "Ablation: disk-cache frames (bare machine)",
		Columns: []string{"Configuration", "50 frames", "100 frames", "200 frames"},
		Notes:   "the parallel-sequential configuration is the most cache-hungry",
	}
	frames := []int{50, 100, 200}
	res, err := runCells(opt, len(fourConfigs)*len(frames), func(i int) (machine.Config, machine.Model) {
		cfg := fourConfigs[i/len(frames)].config(opt)
		cfg.CacheFrames = frames[i%len(frames)]
		return cfg, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range fourConfigs {
		row := []string{c.Name}
		for fi := range frames {
			row = append(row, ms(res[ci*len(frames)+fi].ExecPerPageMs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FragmentSweep ablates the logical log-fragment size, which sets how many
// updates share a log page (the paper assumes small logical fragments).
func FragmentSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:      "fragsize",
		Title:   "Ablation: logical log fragment size (1 log processor)",
		Columns: []string{"Configuration", "200 B util", "400 B util", "1024 B util", "4096 B util"},
		Notes:   "log-disk utilization grows with fragment size; even page-size fragments stay modest except on parallel-sequential",
	}
	frags := []int{200, 400, 1024, 4096}
	res, err := runCells(opt, len(fourConfigs)*len(frags), func(i int) (machine.Config, machine.Model) {
		return fourConfigs[i/len(frags)].config(opt),
			logging.New(logging.Config{FragmentBytes: frags[i%len(frags)]})
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range fourConfigs {
		row := []string{c.Name}
		for fi := range frags {
			row = append(row, ratio(res[ci*len(frags)+fi].Extra["log.diskUtil"]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// SkewSweep runs a Zipf hot-spot workload (an extension beyond the paper):
// lock conflicts appear and the recovery architectures feel them
// differently.
func SkewSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:      "skew",
		Title:   "Extension: Zipf hot-spot workload (conventional disks)",
		Columns: []string{"Skew", "Bare e/p", "Logging e/p", "Lock waits"},
		Notes: "skew 0 is the paper's uniform-random workload; hot spots shorten seeks " +
			"(faster pages) but multiply lock conflicts",
	}
	skews := []float64{0, 1.2, 2.0}
	// Cell i is skew i/2 run bare (even) or logged (odd).
	res, err := runCells(opt, len(skews)*2, func(i int) (machine.Config, machine.Model) {
		cfg := machine.DefaultConfig()
		cfg.Workload.Skew = skews[i/2]
		cfg = opt.apply(cfg)
		var mdl machine.Model
		if i%2 == 1 {
			mdl = logging.New(logging.Config{})
		}
		return cfg, mdl
	})
	if err != nil {
		return nil, err
	}
	for si, skew := range skews {
		bare, logged := res[si*2], res[si*2+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", skew),
			ms(bare.ExecPerPageMs), ms(logged.ExecPerPageMs),
			fmt.Sprintf("%d", bare.LockWaits),
		})
	}
	return t, nil
}

// FuncRecovery measures what the paper's architectures trade away: the cost
// of recovery itself, on the functional engines. For each engine it runs a
// workload, crashes, and reports the stable I/O restart performs — reads and
// writes on the data store and, for the WAL, on the log store — which,
// unlike wall time, is deterministic: the same seed produces the same table
// on any machine.
func FuncRecovery(opt Options) (*Table, error) {
	t := &Table{
		ID:      "funcrecovery",
		Title:   "Extension: restart-recovery cost of the functional engines",
		Columns: []string{"Engine", "Commits", "Data reads", "Data writes", "Log reads", "Log writes"},
		Notes: "stable-store operations during restart (reads and existence probes, writes and deletes; - = no log store): " +
			"the WAL reads its log and the pages it redoes, version selection every version block, the differential file every chunk; " +
			"shadow paging reads its root and page table, the overwrite variants only the intention slots in use",
	}
	n := opt.NumTxns
	if n == 0 {
		n = 200
	}
	// Each architecture owns a private engine and memory stores; the runs
	// are shared-nothing, so they fan out like the simulator cells do.
	archs := engine.Architectures()
	rows, err := runpool.Map(opt.Jobs, len(archs), func(ai int) ([]string, error) {
		e, stores, err := funcRecoveryRun(archs[ai], n)
		if err != nil {
			return nil, err
		}
		e.Crash()
		before := storeOps(stores)
		if err := e.Recover(); err != nil {
			return nil, err
		}
		row := []string{archs[ai], fmt.Sprintf("%d", n), "-", "-", "-", "-"}
		for i, after := range storeOps(stores) {
			row[2+i] = fmt.Sprintf("%d", after-before[i])
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// funcRecoveryRun builds arch on memory stores, loads 32 pages and commits
// n one-page updates: the run FuncRecovery crashes and restarts. The stores
// are the data store and, for the WAL, the log store.
func funcRecoveryRun(arch string, n int) (*engine.Engine, []*pagestore.Store, error) {
	e, stores, err := engine.Build(arch, 8, func(_ string, pageSize int) (*pagestore.Store, error) {
		return pagestore.New(pageSize), nil
	})
	if err != nil {
		return nil, nil, err
	}
	for p := int64(0); p < 32; p++ {
		if err := e.Load(p, make([]byte, 128)); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < n; i++ {
		if err := e.Update(func(tx *engine.Txn) error {
			return tx.Write(int64(i%32), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			return nil, nil, err
		}
	}
	return e, stores, nil
}

// storeOps lists each store's operation counts, reads then writes, store by
// store: the data store's, then the log store's.
func storeOps(stores []*pagestore.Store) []int64 {
	var out []int64
	for _, s := range stores {
		r, w := s.Stats()
		out = append(out, r, w)
	}
	return out
}
