// Package analysis provides closed-form (operational-law) predictions for
// the simulated database machine: expected device service times from the
// disk parameters, and bottleneck lower bounds for execution time per page.
// The test suite cross-validates the discrete-event simulator against these
// predictions, so the simulation cannot silently drift away from the
// queueing model it claims to implement.
package analysis

import (
	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/sim"
)

// DiskTimes are expected per-access service times for a device described by
// params and geometry, with requests spread over extentCyls cylinders.
type DiskTimes struct {
	RandomAccess sim.Time // seek(avg distance) + avg latency + 1 page transfer
	SeqRead      sim.Time // immediately-sequential page: rotational miss + transfer
	InPlaceWrite sim.Time // write-back near the previous access
	CylinderRead sim.Time // parallel-access: one whole cylinder
}

// Compute derives DiskTimes. Average random seek distance over an extent of
// n cylinders is n/3 (uniform independent positions).
func Compute(params disk.Params, geom disk.Geometry, extentCyls int) DiskTimes {
	avgDist := extentCyls / 3
	if avgDist < 1 {
		avgDist = 1
	}
	latency := params.Rotation / 2
	return DiskTimes{
		RandomAccess: params.SeekTime(avgDist) + latency + params.PageTransfer,
		SeqRead:      3*params.Rotation/4 + params.PageTransfer,
		InPlaceWrite: params.MinSeek + latency + params.PageTransfer,
		CylinderRead: params.MinSeek + latency +
			sim.Time(geom.PagesPerTrack)*params.PageTransfer,
	}
}

// Prediction is the bottleneck analysis of one machine configuration.
type Prediction struct {
	DiskDemandMs float64 // data-disk busy time per processed page (per disk pool)
	QPDemandMs   float64 // query-processor busy time per processed page (per pool)
	ExecPerPage  float64 // max of the demands: the throughput lower bound
	DiskBound    bool    // which resource is predicted to saturate
}

// PredictBare computes the bare machine's bottleneck bound. Processed pages
// follow the paper's denominator: reads plus updated-page writes.
func PredictBare(cfg machine.Config) Prediction {
	reads := float64(cfg.Workload.MinPages+cfg.Workload.MaxPages) / 2
	writes := reads * cfg.Workload.WriteFrac
	pages := reads + writes

	geom := disk.Geometry{
		PagesPerTrack: machine.PagesPerTrack,
		TracksPerCyl:  machine.TracksPerCyl,
		Cylinders:     1,
	}
	ppc := geom.PagesPerCyl()
	extent := cfg.Workload.DBPages / ppc / cfg.DataDisks
	dt := Compute(disk.Default3350Params(), geom, extent)

	var diskBusy float64 // ms per transaction across the disk pool
	switch {
	case cfg.ParallelDisks && cfg.Workload.Sequential:
		// Reads arrive a cylinder at a time; writes batch per cylinder too.
		cyls := reads / float64(ppc)
		diskBusy = cyls * dt.CylinderRead.ToMs() * 2 // read pass + write pass
	case cfg.Workload.Sequential:
		diskBusy = reads*dt.SeqRead.ToMs() + writes*dt.InPlaceWrite.ToMs()
	default:
		diskBusy = (reads + writes) * dt.RandomAccess.ToMs()
	}
	diskDemand := diskBusy / pages / float64(cfg.DataDisks)

	cpuBusy := reads*machine.CPUPerPage.ToMs() +
		writes*(machine.CPUPerPage+machine.CPUPerUpdate).ToMs()
	qpDemand := cpuBusy / pages / float64(cfg.QueryProcessors)

	p := Prediction{DiskDemandMs: diskDemand, QPDemandMs: qpDemand}
	if diskDemand >= qpDemand {
		p.ExecPerPage, p.DiskBound = diskDemand, true
	} else {
		p.ExecPerPage = qpDemand
	}
	return p
}

// PredictLogUtilization estimates a single log disk's utilization under
// logical logging: one fragment per updated page, fragsPerPage fragments
// per log page, each log-page write costing roughly a rotational miss plus
// a transfer (sequential appends), normalized by the machine's predicted
// page rate.
func PredictLogUtilization(cfg machine.Config, fragmentBytes, pageBytes int) float64 {
	bare := PredictBare(cfg)
	fragsPerPage := float64(pageBytes / fragmentBytes)
	writeFrac := cfg.Workload.WriteFrac / (1 + cfg.Workload.WriteFrac) // updates per processed page
	logWritesPerPage := writeFrac / fragsPerPage
	params := disk.Default3350Params()
	logWriteMs := (3*params.Rotation/4 + params.PageTransfer).ToMs()
	return logWritesPerPage * logWriteMs / bare.ExecPerPage
}

// PredictBasicDiffExec bounds the basic differential-file strategy: every B
// and A page pays a set difference against the transaction's D tuples, and
// the query processors saturate.
func PredictBasicDiffExec(cfg machine.Config, diffFrac float64, tuplesPerPage int, compareCPU sim.Time) float64 {
	reads := float64(cfg.Workload.MinPages+cfg.Workload.MaxPages) / 2
	// E[N^2]/E[N] weighting: the set-difference cost is linear in the
	// transaction size, and big transactions contribute more pages.
	lo, hi := float64(cfg.Workload.MinPages), float64(cfg.Workload.MaxPages)
	en2 := (hi*(hi+1)*(2*hi+1) - (lo-1)*lo*(2*lo-1)) / 6 / (hi - lo + 1)
	weighted := en2 / reads

	dTuples := diffFrac * weighted * float64(tuplesPerPage)
	setDiffMs := float64(tuplesPerPage) * dTuples * compareCPU.ToMs()
	scanMs := machine.CPUPerPage.ToMs()
	// Per processed page (B, A and D pages; D pages only scan).
	perPage := (setDiffMs*(1+diffFrac) + scanMs*(1+2*diffFrac)) / (1 + 2*diffFrac)
	return perPage / float64(cfg.QueryProcessors)
}
