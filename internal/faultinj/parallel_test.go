package faultinj

import (
	"bytes"
	"testing"
)

// TestSweepJobsEquivalence is the differential acceptance test for the
// parallel crash sweep: a full report — engine sweeps on memory and on
// file-backed stores, and the rendered document — must be byte-identical
// at jobs=1 (a plain sequential loop) and jobs=8. Crash points fan out across
// workers, but every point owns its own engine and stores and outcomes are
// assembled in point order, so worker count can only change wall-clock
// time.
func TestSweepJobsEquivalence(t *testing.T) {
	render := func(jobs int) []byte {
		t.Helper()
		files, err := FileTargetsByName(t.TempDir(), "wal-1stream,difffile")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Sweep(append(Targets(), files...), Options{Seed: 42, Every: 7, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Engines) != 7 || len(rep.Files) != 2 {
			t.Fatalf("memory/file sections = %d/%d targets, want 7/2", len(rep.Engines), len(rep.Files))
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := render(1), render(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("jobs=1 and jobs=8 reports differ:\n--- jobs=1\n%s\n--- jobs=8\n%s", seq, par)
	}
}

// TestSweepTargetParallelFailureOrder pins that audit failures, if any ever
// appear, would surface in deterministic point order: the fan-out assembles
// outcomes by crash-point index, not completion order. It exercises the
// assembly path at a worker count above the point count.
func TestSweepTargetParallelFailureOrder(t *testing.T) {
	tg := Targets()[0] // wal-1stream
	a, err := SweepTarget(tg, Options{Seed: 42, Every: 11, Jobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepTarget(tg, Options{Seed: 42, Every: 11, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Points != b.Points || a.Recrashes != b.Recrashes || a.Commits != b.Commits ||
		a.DoubtApplied != b.DoubtApplied || a.DoubtReverted != b.DoubtReverted {
		t.Fatalf("parallel and sequential target reports diverged: %+v vs %+v", a, b)
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure counts diverged: %v vs %v", a.Failures, b.Failures)
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("failure order diverged at %d: %q vs %q", i, a.Failures[i], b.Failures[i])
		}
	}
}
