package faultinj

// filesweep.go runs the crash sweep against real storage. The memory
// sweep (sweep.go) enumerates page-level stable mutations; this sweep
// descends one layer and enumerates *file operations* — every append,
// fsync, fold page-write, and log truncate the file-backed pagestore
// performs — and injects the faults real disks exhibit at each one:
//
//   - power cut between the write and its fsync (FileCrash),
//   - a torn (partial) record left on the platter (FileTorn),
//   - an fsync whose payload the device loses, unacknowledged (FileLostSync).
//
// The audits are the same ones the memory sweep runs: after the fault,
// crash the engine, re-crash recovery itself partway through, finish
// recovery, and check atomicity, durability, idempotence, and liveness.
// A file-backed architecture passes only if the on-disk write ordering
// (append → fsync → acknowledge) upholds the stable-storage contract at
// every single file operation.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
	"repro/internal/runpool"
)

// fileBuildSeq hands every file-backed Build call its own directory.
// Uniqueness is all that matters here — the directory name never reaches
// the report, so the counter does not threaten determinism.
var fileBuildSeq atomic.Int64

// cleanFileStores closes every store and removes the per-build directory
// of each file-backed one; it is the Clean hook of every file target.
func cleanFileStores(stores []*pagestore.Store) {
	for _, s := range stores {
		var dir string
		if fb, ok := s.Backend().(*filestore.Backend); ok {
			dir = fb.Dir()
		}
		s.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

// FileTargets is Targets — the same seven recovery architectures — with
// every stable store on real files under root: a fresh subdirectory per
// store and build, a write-ahead page log with explicit fsyncs, and
// crc-checked records.
func FileTargets(root string) []Target {
	return architectures(func(name string, pageSize int) (*pagestore.Store, error) {
		return filestore.Open(filepath.Join(root, fmt.Sprintf("%s-%06d", name, fileBuildSeq.Add(1))), pageSize)
	}, cleanFileStores)
}

// FileTargetsByName filters FileTargets(root) to the comma-separated
// names in sel; empty or "all" selects everything.
func FileTargetsByName(root, sel string) ([]Target, error) {
	return selectTargets(FileTargets(root), sel)
}

// FileTargetReport is the audited result of sweeping one architecture at
// file-operation granularity.
type FileTargetReport struct {
	Target    string
	FileOps   int64    // file operations in the crash-free probe run
	Points    int      // fault points injected and audited (all kinds)
	Torn      int      // points injecting a torn write
	LostSyncs int      // points injecting an unacknowledged lost fsync
	Recrashes int      // recoveries that were crashed mid-flight and rerun
	Commits   int64    // committed transactions across all point runs
	Failures  []string // audit failures; empty means every audit passed
}

// filePoint is one fault to inject: fault at the k-th file operation.
type filePoint struct {
	k     int64
	fault pagestore.FileFault
}

func faultName(f pagestore.FileFault) string {
	switch f {
	case pagestore.FileCrash:
		return "crash"
	case pagestore.FileTorn:
		return "torn"
	case pagestore.FileLostSync:
		return "lostsync"
	case pagestore.FileSkipSync:
		return "skipsync"
	}
	return "ok"
}

// crashAtFileOp returns a one-shot FileHook injecting fault at the n-th
// file operation counted across every store it is installed on (a WAL
// engine's data and log stores share the same countdown, so points
// enumerate their combined sequence).
func crashAtFileOp(n int64, fault pagestore.FileFault) pagestore.FileHook {
	var ctr atomic.Int64
	return func(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
		if ctr.Add(1) == n {
			return fault
		}
		return pagestore.FileOK
	}
}

// armFileHook installs hook on every store, failing if any store's
// backend cannot inject file faults.
func armFileHook(tg Target, stores []*pagestore.Store, hook pagestore.FileHook) error {
	for _, s := range stores {
		if !s.SetFileHook(hook) {
			return fmt.Errorf("faultinj: %s: store backend is not file-injectable", tg.Name)
		}
	}
	return nil
}

// SweepFileTarget enumerates the file operations of the scripted workload
// and injects, at every opt.Every-th one, a power cut — plus a torn write
// where the operation is an append or fold page-write, and a lost fsync
// where it is an fsync. Each point then runs the standard crash → re-crash
// recovery → audit cycle of the memory sweep.
func SweepFileTarget(tg Target, opt Options) (*FileTargetReport, error) {
	opt = opt.withDefaults()
	rep := &FileTargetReport{Target: tg.Name}

	// Probe run: trace the workload's file operations without faulting.
	e, stores, err := tg.Build()
	if err != nil {
		return nil, fmt.Errorf("faultinj: build %s: %w", tg.Name, err)
	}
	defer tg.clean(stores)
	model, err := LoadPages(e, opt.Pages)
	if err != nil {
		return nil, fmt.Errorf("faultinj: load %s: %w", tg.Name, err)
	}
	var mu sync.Mutex
	var ops []pagestore.FileOp
	trace := func(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
		return pagestore.FileOK
	}
	if err := armFileHook(tg, stores, trace); err != nil {
		return nil, err
	}
	probe := RunScript(e, model, opt.Seed, opt.Pages, opt.MaxTxns)
	if probe.Crashed {
		return nil, fmt.Errorf("faultinj: %s: probe run crashed without injection", tg.Name)
	}
	rep.FileOps = int64(len(ops))

	// Every file operation k (stride Every) yields a power-cut point, and
	// operations with a richer failure mode yield a second point for it.
	var points []filePoint
	for k := int64(1); k <= rep.FileOps; k += opt.Every {
		points = append(points, filePoint{k, pagestore.FileCrash})
		switch ops[k-1] {
		case pagestore.FileAppend, pagestore.FilePageWrite:
			points = append(points, filePoint{k, pagestore.FileTorn})
		case pagestore.FileSync:
			points = append(points, filePoint{k, pagestore.FileLostSync})
		}
	}
	opt.Progress.AddTotal(int64(len(points)))
	outcomes, err := runpool.Map(opt.Jobs, len(points), func(i int) (*pointOutcome, error) {
		po, err := sweepFilePoint(tg, opt, points[i])
		opt.Progress.Add(1)
		return po, err
	})
	if err != nil {
		return nil, err
	}
	for i, po := range outcomes {
		rep.Points++
		switch points[i].fault {
		case pagestore.FileTorn:
			rep.Torn++
		case pagestore.FileLostSync:
			rep.LostSyncs++
		}
		rep.Commits += po.commits
		if po.recrashed {
			rep.Recrashes++
		}
		rep.Failures = append(rep.Failures, po.failures...)
	}
	return rep, nil
}

// sweepFilePoint audits one file-level fault point: inject the fault at
// the k-th file operation, crash the engine, re-crash recovery itself at
// a k-derived page operation, finish recovery, and audit.
func sweepFilePoint(tg Target, opt Options, pt filePoint) (*pointOutcome, error) {
	po := &pointOutcome{}
	e, stores, err := tg.Build()
	if err != nil {
		return nil, fmt.Errorf("faultinj: build %s: %w", tg.Name, err)
	}
	defer tg.clean(stores)
	model, err := LoadPages(e, opt.Pages)
	if err != nil {
		return nil, fmt.Errorf("faultinj: load %s: %w", tg.Name, err)
	}
	if err := armFileHook(tg, stores, crashAtFileOp(pt.k, pt.fault)); err != nil {
		return nil, err
	}
	out := RunScript(e, model, opt.Seed, opt.Pages, opt.MaxTxns)
	po.commits = int64(out.Commits)
	e.Crash()
	if err := armFileHook(tg, stores, nil); err != nil {
		return nil, err
	}
	// Recovery is re-crashed at the page-operation level, the same schedule
	// the memory sweep uses; power-on replay must converge on the second
	// attempt regardless of where the first one died.
	po.recoverAndAudit(e, stores, out, opt, pt.k,
		fmt.Sprintf("%s@fileop %d (%s)", tg.Name, pt.k, faultName(pt.fault)))
	return po, nil
}

// SweepFiles runs SweepFileTarget over targets (normally FileTargets) and
// bundles the reports for Report.Files.
func SweepFiles(targets []Target, opt Options) ([]*FileTargetReport, error) {
	opt = opt.withDefaults()
	var out []*FileTargetReport
	for _, tg := range targets {
		tr, err := SweepFileTarget(tg, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
