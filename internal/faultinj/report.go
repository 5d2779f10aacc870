package faultinj

import (
	"fmt"
	"io"
	"slices"
)

// Report bundles one whole crash sweep: the engine crash-point sweeps on
// memory and on file-backed stores. Rendering is fully deterministic — no
// wall-clock, no map iteration — so two sweeps with the same options emit
// byte-identical reports.
type Report struct {
	Seed  int64
	Every int64

	Engines []*TargetReport
	Files   []*TargetReport
}

// targets lists every target report, the memory section's first.
func (r *Report) targets() []*TargetReport { return slices.Concat(r.Engines, r.Files) }

// TotalPoints counts every audited crash point in the report.
func (r *Report) TotalPoints() int {
	n := 0
	for _, tr := range r.targets() {
		n += tr.Points
	}
	return n
}

// TotalFailures counts every audit failure in the report.
func (r *Report) TotalFailures() int {
	n := 0
	for _, tr := range r.targets() {
		n += len(tr.Failures)
	}
	return n
}

// Render writes the report as a deterministic plain-text document.
func (r *Report) Render(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("crashsweep report (seed=%d every=%d pages=%d txns=%d)\n\n",
		r.Seed, r.Every, sweepPages, sweepTxns); err != nil {
		return err
	}
	if len(r.Engines) > 0 {
		if err := p("recovery-engine crash points (crash at k-th stable mutation, re-crash during recovery, audit):\n"); err != nil {
			return err
		}
		if err := p("  %-12s %9s %7s %9s %8s %8s %8s %9s\n",
			"engine", "mutations", "points", "recrashes", "applied", "reverted", "commits", "failures"); err != nil {
			return err
		}
		for _, tr := range r.Engines {
			if err := p("  %-12s %9d %7d %9d %8d %8d %8d %9d\n",
				tr.Target, tr.Ops, tr.Points, tr.Recrashes,
				tr.DoubtApplied, tr.DoubtReverted, tr.Commits, len(tr.Failures)); err != nil {
				return err
			}
		}
		if err := p("\n"); err != nil {
			return err
		}
	}
	if len(r.Files) > 0 {
		if err := p("file-backed crash points (fault the k-th file operation: power cut, torn write at appends, lost fsync at syncs):\n"); err != nil {
			return err
		}
		if err := p("  %-12s %8s %7s %6s %9s %9s %8s %9s\n",
			"engine", "fileops", "points", "torn", "lostsyncs", "recrashes", "commits", "failures"); err != nil {
			return err
		}
		for _, fr := range r.Files {
			if err := p("  %-12s %8d %7d %6d %9d %9d %8d %9d\n",
				fr.Target, fr.Ops, fr.Points, fr.Torn, fr.LostSyncs,
				fr.Recrashes, fr.Commits, len(fr.Failures)); err != nil {
				return err
			}
		}
		if err := p("\n"); err != nil {
			return err
		}
	}
	for _, tr := range r.targets() {
		for _, f := range tr.Failures {
			if err := p("FAIL %s\n", f); err != nil {
				return err
			}
		}
	}
	verdict := "PASS"
	if r.TotalFailures() > 0 {
		verdict = "FAIL"
	}
	return p("total: %d crash points, %d failures — %s\n",
		r.TotalPoints(), r.TotalFailures(), verdict)
}
