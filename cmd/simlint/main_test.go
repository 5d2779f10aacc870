package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture returns the module-relative pattern for one lint fixture
// directory; the fixtures double as a stable corpus for the CLI tests.
func fixture(name string) string {
	return "./internal/lint/testdata/" + name
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeClean(t *testing.T) {
	code, stdout, stderr := runCLI(t, fixture("clean"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run should print nothing, got:\n%s", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	code, stdout, _ := runCLI(t, fixture("d001"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "[D001]") {
		t.Fatalf("stdout missing D001 finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "finding(s)") {
		t.Fatalf("stdout missing summary line:\n%s", stdout)
	}
}

func TestExitCodeBadFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
}

func TestExitCodeBadPattern(t *testing.T) {
	code, _, stderr := runCLI(t, "./no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "simlint:") {
		t.Fatalf("stderr missing error prefix:\n%s", stderr)
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update after reviewing):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestListGolden pins the rule table: adding or rescoping a rule must
// show up as a reviewed golden diff.
func TestListGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	checkGolden(t, "list.golden", stdout)
}

// TestJSONGolden pins the machine-readable report format consumed by CI.
func TestJSONGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-json", fixture("d001"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	checkGolden(t, "json.golden", stdout)
}

// TestJSONClean pins the empty-report shape (findings stays [] — never
// null — so downstream jq filters keep working).
func TestJSONClean(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-json", fixture("clean"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, `"findings": []`) {
		t.Fatalf("empty report should render findings as []:\n%s", stdout)
	}
}
