package faultinj

// filesweep.go puts the crash sweep on real storage. On file-backed
// targets SweepTarget descends one layer below page mutations and
// enumerates *file operations* — every append, fsync, fold page-write,
// and log truncate the file-backed pagestore performs — and injects the
// faults real disks exhibit at each one:
//
//   - power cut between the write and its fsync (FileCrash),
//   - a torn (partial) record left on the platter (FileTorn),
//   - an fsync whose payload the device loses, unacknowledged (FileLostSync).
//
// The audits are the ones every crash point runs. A file-backed
// architecture passes only if the on-disk write ordering (append → fsync
// → acknowledge) upholds the stable-storage contract at every single file
// operation.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/pagestore"
	"repro/internal/pagestore/filestore"
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

// armFileHook installs hook on every store and reports whether they all
// accepted it; memory stores refuse, so it stops at the first that does.
func armFileHook(stores []*pagestore.Store, hook pagestore.FileHook) bool {
	for _, s := range stores {
		if !s.SetFileHook(hook) {
			return false
		}
	}
	return true
}
