package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinj"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// drillLines runs the drill on every architecture and returns its report,
// one line per target in faultinj's order.
func drillLines(t *testing.T, args ...string) []string {
	t.Helper()
	code, stdout, stderr := runCLI(t, append([]string{"-engine", "all"}, args...)...)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	targets := faultinj.Targets()
	if len(lines) != len(targets) {
		t.Fatalf("%d report lines, want %d:\n%s", len(lines), len(targets), stdout)
	}
	for i, tg := range targets {
		if !strings.HasPrefix(lines[i], tg.Name+" ") || !strings.Contains(lines[i], ": CONSISTENT") {
			t.Errorf("line %d = %q, want a CONSISTENT %s drill", i, lines[i], tg.Name)
		}
	}
	return lines
}

// TestCrashAfterZeroCommitsNothing: power fails at the very first stable
// mutation, on the log store as much as the data store, so no architecture
// can acknowledge a commit.
func TestCrashAfterZeroCommitsNothing(t *testing.T) {
	for _, line := range drillLines(t, "-crash-after", "0") {
		if !strings.Contains(line, "committed=0 ") {
			t.Errorf("commits survived a power cut at the first mutation: %q", line)
		}
	}
}

func TestCrashMidWorkloadAndAfterIt(t *testing.T) {
	drillLines(t, "-crash-after", "20")
	drillLines(t)
}

// TestSnapshotChain is the full → incremental → restore chain of the
// package doc, on a WAL and a shadow-family architecture.
func TestSnapshotChain(t *testing.T) {
	for _, name := range []string{"wal-3streams", "ow-noredo"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			full, incr := filepath.Join(dir, "full.snap"), filepath.Join(dir, "incr.snap")
			for _, args := range [][]string{
				{"-snapshot", full},
				{"-txns", "600", "-snapshot", incr, "-snapshot-since", full},
			} {
				code, stdout, stderr := runCLI(t, append([]string{"-engine", name}, args...)...)
				if code != 0 || strings.Count(stdout, ": CONSISTENT") != 2 {
					t.Fatalf("%v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
				}
			}
			code, stdout, stderr := runCLI(t, "-engine", name, "-restore", full+","+incr)
			if code != 0 || !strings.Contains(stdout, "restored 2 archives") {
				t.Fatalf("restore: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "wal"},
		{"-streams", "2"},
		{"-snapshot", filepath.Join(t.TempDir(), "x.snap")},
		{"-engine", "shadow", "-snapshot-since", "base.snap"},
	} {
		if code, _, stderr := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2\nstderr:\n%s", args, code, stderr)
		}
	}
}
