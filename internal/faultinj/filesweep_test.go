package faultinj

import (
	"bytes"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pagestore"
)

// TestSweepFileTargetQuick runs a strided file-operation sweep over one
// architecture on real files and requires every audit to pass, with all
// three fault kinds represented.
func TestSweepFileTargetQuick(t *testing.T) {
	tg := FileTargets(t.TempDir())[2] // shadow
	rep, err := SweepTarget(tg, Options{Seed: 1985, Every: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Points == 0 {
		t.Fatalf("empty sweep: %+v", rep)
	}
	if rep.Torn == 0 || rep.LostSyncs == 0 {
		t.Fatalf("fault kinds missing: torn=%d lostsyncs=%d (stride must hit appends AND syncs)",
			rep.Torn, rep.LostSyncs)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("file sweep failures: %v", rep.Failures)
	}
}

// TestSweepFilesWALTarget covers the two-store (data + log) layout: the
// WAL engine's log chunks live on their own file-backed store and the
// fault point countdown spans both stores.
func TestSweepFilesWALTarget(t *testing.T) {
	tg := FileTargets(t.TempDir())[0] // wal-1stream
	rep, err := SweepTarget(tg, Options{Seed: 1985, Every: 21})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points == 0 {
		t.Fatal("no points")
	}
	if !rep.files {
		t.Fatal("file-backed target swept at page-mutation granularity")
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("file sweep failures: %v", rep.Failures)
	}
}

// TestFileSweepOpsPinned pins the file sweep's size: each architecture's
// file operations in the crash-free probe of the default workload, and its
// crash points at -every 1 — a power cut at every operation, plus a torn
// write at every append and fold page-write and a lost fsync at every
// fsync. With the memory sweep's 554 (TestSweepMutationCountsPinned) they
// make crashsweep -file -every 1's 2,770 points. A drift means the file
// store's write pattern changed shape, which must be a conscious decision.
func TestFileSweepOpsPinned(t *testing.T) {
	type size struct{ ops, points int64 }
	want := map[string]size{
		"wal-1stream":  {74, 148},
		"wal-3streams": {126, 252},
		"shadow":       {174, 348},
		"ow-noundo":    {224, 448},
		"ow-noredo":    {324, 648},
		"verselect":    {146, 292},
		"difffile":     {40, 80},
	}
	opt := Options{Seed: 1985}.withDefaults()
	var total int64
	for _, tg := range FileTargets(t.TempDir()) {
		e, stores, err := tg.Build()
		if err != nil {
			t.Fatal(err)
		}
		model, err := LoadPages(e, sweepPages)
		if err != nil {
			t.Fatal(err)
		}
		var got size
		armFileHook(stores, func(op pagestore.FileOp, _ string, _ int64) pagestore.FileFault {
			got.ops++
			got.points++
			if op == pagestore.FileAppend || op == pagestore.FilePageWrite || op == pagestore.FileSync {
				got.points++
			}
			return pagestore.FileOK
		})
		crashed := RunScript(e, model, opt.Seed, sweepPages, sweepTxns).Crashed
		tg.clean(stores)
		if crashed {
			t.Fatalf("%s: probe crashed", tg.Name)
		}
		if got != want[tg.Name] {
			t.Errorf("%s: %d file ops and %d points, pinned %d and %d", tg.Name, got.ops, got.points, want[tg.Name].ops, want[tg.Name].points)
		}
		total += got.points
	}
	if total != 2216 {
		t.Errorf("file points = %d, pinned 2216 (2,770 in crashsweep -file -every 1, less the memory sweep's 554)", total)
	}
}

// TestFileTargetsCleanRemovesDirs: a finished sweep leaves nothing behind
// in the scratch root.
func TestFileTargetsCleanRemovesDirs(t *testing.T) {
	root := t.TempDir()
	tg := FileTargets(root)[6] // difffile: smallest workload
	if _, err := SweepTarget(tg, Options{Seed: 1985, Every: 5}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("scratch root not cleaned: %d entries left (%v ...)", len(ents), ents[0].Name())
	}
}

// TestFileSweepCatchesLyingSync is the negative control the whole file
// fault surface exists for: a device that ACKNOWLEDGES fsyncs without
// performing them violates the stable-storage contract, and the same
// audits that pass 0-failure sweeps on the honest device must flag it.
// (Referenced by filestore's TestSkipSyncViolatesDurability.)
func TestFileSweepCatchesLyingSync(t *testing.T) {
	opt := Options{Seed: 1985}.withDefaults()
	caught := false
	for _, tg := range []Target{FileTargets(t.TempDir())[2]} { // shadow
		e, stores, err := tg.Build()
		if err != nil {
			t.Fatal(err)
		}
		model, err := LoadPages(e, sweepPages)
		if err != nil {
			tg.clean(stores)
			t.Fatal(err)
		}
		// From the 20th file operation on, every fsync lies; the 120th
		// operation cuts power, losing every "durable" write in between.
		var n atomic.Int64
		lie := func(op pagestore.FileOp, name string, seq int64) pagestore.FileFault {
			k := n.Add(1)
			if k >= 120 {
				return pagestore.FileCrash
			}
			if k >= 20 && op == pagestore.FileSync {
				return pagestore.FileSkipSync
			}
			return pagestore.FileOK
		}
		if !armFileHook(stores, lie) {
			tg.clean(stores)
			t.Fatal("store backend is not file-injectable")
		}
		out := RunScript(e, model, opt.Seed, sweepPages, sweepTxns)
		e.Crash()
		if !armFileHook(stores, nil) {
			tg.clean(stores)
			t.Fatal("store backend is not file-injectable")
		}
		if err := e.Recover(); err != nil {
			// Recovery itself refusing the corrupted state counts as
			// detection.
			caught = true
		} else {
			fails, _ := AuditState(e, out, sweepPages)
			fails = append(fails, AuditIdempotence(e, sweepPages)...)
			if len(fails) > 0 {
				caught = true
			}
		}
		tg.clean(stores)
	}
	if !caught {
		t.Fatal("a lying fsync device produced no audit failures — the sweep cannot detect durability violations")
	}
}

// TestFileReportRendering: the file section renders deterministically and
// only when present (memory-only reports stay byte-identical).
func TestFileReportRendering(t *testing.T) {
	base := &Report{Seed: 1, Every: 1,
		Engines: []*TargetReport{{Target: "shadow", Ops: 3, Points: 3}}}
	var memOnly bytes.Buffer
	if err := base.Render(&memOnly); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(memOnly.String(), "file-backed") {
		t.Fatal("memory-only report mentions the file section")
	}
	base.Files = []*TargetReport{{Target: "shadow", Ops: 6, Points: 9, Torn: 2, LostSyncs: 1,
		Failures: []string{"shadow@fileop 3 (torn): boom"}}}
	var withFiles bytes.Buffer
	if err := base.Render(&withFiles); err != nil {
		t.Fatal(err)
	}
	out := withFiles.String()
	for _, want := range []string{"file-backed crash points", "lostsyncs", "FAIL shadow@fileop 3 (torn): boom", "12 crash points, 1 failures — FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(withFiles.String(), memOnly.String()[:len("crashsweep report")]) {
		t.Fatal("header diverged")
	}
}
