package main

import (
	"bytes"
	"os"
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

// TestSmallSweepPasses: one engine at a coarse stride audits clean, and the
// -report file carries the verdict.
func TestSmallSweepPasses(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.txt")
	code, stdout, stderr := runCLI(t, "-engines", "difffile", "-every", "5", "-quiet", "-report", report)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want empty with -report", stdout)
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), "— PASS\n") {
		t.Fatalf("report does not end with a PASS verdict:\n%s", b)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-machine-points", "4"},    // the simulator section is gone
		{"-journal", "wal-1stream"}, // no @k
		{"-journal", "all@3"},       // more than one engine
		{"-journal", "shadow,difffile@3"},
		{"-engines", "nope", "-quiet"}, // unknown engine
		{"-quiet", "extra"},            // stray argument
		// -journal replays one memory-store point; sweep flags are refused.
		{"-file", "-journal", "wal-1stream@3"},
		{"-engines", "shadow", "-journal", "wal-1stream@3"},
		{"-every", "2", "-journal", "wal-1stream@3"},
		{"-report", "r.txt", "-journal", "wal-1stream@3"},
		{"-file-dir", "d", "-journal", "wal-1stream@3"},
		{"-jobs", "2", "-journal", "wal-1stream@3"},
		{"-live", "127.0.0.1:0", "-journal", "wal-1stream@3"},
	} {
		if code, _, stderr := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2\nstderr:\n%s", args, code, stderr)
		}
	}
}

// TestCrashAfterZeroCommitsNothing: power fails at the very first stable
// mutation, on the log store as much as the data store, so no architecture
// can acknowledge a commit or surface an in-doubt one as applied, and the
// replayed point still audits clean.
func TestCrashAfterZeroCommitsNothing(t *testing.T) {
	for _, tg := range faultinj.Targets() {
		spec := tg.Name + "@1"
		code, _, stderr := runCLI(t, "-journal", spec)
		if code != 0 {
			t.Errorf("%s: exit = %d, want 0\nstderr:\n%s", spec, code, stderr)
		}
		if !strings.HasPrefix(stderr, spec+": committed=0 CONSISTENT") || strings.Contains(stderr, "applied") {
			t.Errorf("%s: stderr = %q, want a committed=0 CONSISTENT verdict", spec, stderr)
		}
	}
}

// TestFileSweepRemovesScratch: the -file sweep's scratch root is removed
// on a passing run and on a harness error after the sweep (here an
// uncreatable -report path), so no exit path leaks it.
func TestFileSweepRemovesScratch(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := []string{"-file", "-engines", "difffile", "-every", "50", "-quiet"}
	if code, _, stderr := runCLI(t, base...); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	bad := filepath.Join(tmp, "missing", "report.txt")
	if code, _, stderr := runCLI(t, append(base, "-report", bad)...); code != 2 {
		t.Fatalf("unwritable -report: exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("TMPDIR holds %d entries after the sweeps, want none: %v", len(left), left)
	}
}
