package experiments

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/recovery/logging"
	"repro/internal/runpool"
	"repro/internal/sim"
)

func init() {
	registry["checkpoint"] = CheckpointSweep
	registry["sysrecovery"] = SystemRecovery
}

// CheckpointSweep reproduces the point of the paper's reference [13]:
// system checkpoints taken in parallel with normal processing cost almost
// nothing, while quiescing checkpoints (drain the machine, then write the
// checkpoint) hurt more the more often they run.
func CheckpointSweep(opt Options) (*Table, error) {
	t := &Table{
		ID:    "checkpoint",
		Title: "Extension: checkpointing without quiescing ([13]) vs quiescing",
		Columns: []string{"Checkpoint interval",
			"parallel e/p", "quiescing e/p", "parallel compl", "quiescing compl"},
		Notes: "conventional disks, random transactions, logical logging; the parallel " +
			"scheme overlaps checkpoints with data processing",
	}
	intervals := []struct {
		name  string
		every sim.Time
	}{
		{"none", 0},
		{"5 s", 5 * sim.Second},
		{"2 s", 2 * sim.Second},
		{"0.5 s", sim.Second / 2},
	}
	// Cell i is interval i/2, parallel (even) or quiescing (odd) checkpoints.
	res, err := runCells(opt, len(intervals)*2, func(i int) (machine.Config, machine.Model) {
		cfg := opt.apply(machine.DefaultConfig())
		return cfg, logging.New(logging.Config{
			CheckpointEvery:     intervals[i/2].every,
			QuiescingCheckpoint: i%2 == 1,
		})
	})
	if err != nil {
		return nil, err
	}
	for ii, iv := range intervals {
		par, qui := res[ii*2], res[ii*2+1]
		t.Rows = append(t.Rows, []string{iv.name,
			ms(par.ExecPerPageMs), ms(qui.ExecPerPageMs),
			ms(par.MeanCompletionMs), ms(qui.MeanCompletionMs)})
	}
	return t, nil
}

// SystemRecovery simulates restart after a system crash with the paper's
// parallel-logging architecture: the log disks are read back concurrently
// (no physical merge — reference [13]) and the redo/undo writes go to the
// two data disks. More log disks mean proportionally faster log reading,
// which is the payoff of distributing the log.
func SystemRecovery(opt Options) (*Table, error) {
	t := &Table{
		ID:      "sysrecovery",
		Title:   "Extension: simulated restart time vs number of log disks",
		Columns: []string{"Log Disks", "Log pages read", "Redo/undo writes", "Restart (ms)"},
		Notes: "physical logging after the Table 3 workload; log disks are scanned in " +
			"parallel and never merged into one physical log",
	}
	// Each row is an independent workload-plus-restart simulation pair with
	// its own engines, so rows fan out as whole jobs.
	rows, err := runpool.Map(opt.Jobs, 5, func(row int) ([]string, error) {
		n := row + 1
		// First run the workload to learn how much log each disk holds.
		res, err := machine.Run(table3Config(opt), logging.New(logging.Config{
			Mode:          logging.Physical,
			LogProcessors: n,
		}))
		if err != nil {
			return nil, err
		}
		var logPages int64
		for i := 0; i < n; i++ {
			logPages += int64(res.Extra[fmt.Sprintf("log.disk%d.writes", i)])
		}
		// Assume a crash at the end: roughly one transaction's updates per
		// active slot were unprotected; redo/undo rewrites them in place.
		redoWrites := int(res.Extra["log.frags"])

		// Now simulate the restart on fresh devices: each log disk streams
		// its pages back sequentially while the data disks absorb the
		// redo/undo writes round-robin.
		eng := sim.New()
		geom := disk.Geometry{PagesPerTrack: machine.PagesPerTrack, TracksPerCyl: machine.TracksPerCyl, Cylinders: 200}
		params := disk.Default3350Params()
		dataDisks := []*disk.Conventional{
			disk.NewConventional(eng, "data0", geom, params),
			disk.NewConventional(eng, "data1", geom, params),
		}
		perDisk := int(logPages) / n
		for i := 0; i < n; i++ {
			ld := disk.NewConventional(eng, fmt.Sprintf("log%d", i), geom, params)
			i := i
			var readNext func(seq int)
			readNext = func(seq int) {
				if seq >= perDisk {
					return
				}
				page := seq % geom.Capacity()
				ld.Submit(&disk.Request{Pages: []int{page}, Done: func() {
					// Every few log pages produce a data-page rewrite.
					if seq%3 == 0 && redoWrites > 0 {
						redoWrites--
						d := dataDisks[(i+seq)%2]
						d.Submit(&disk.Request{
							Pages: []int{(seq * 7) % geom.Capacity()},
							Write: true,
						})
					}
					readNext(seq + 1)
				}})
			}
			readNext(0)
		}
		eng.Run()
		return []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", logPages),
			fmt.Sprintf("%d", int(res.Extra["log.frags"])),
			ms(eng.Now().ToMs()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
