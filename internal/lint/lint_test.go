package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// fixtureDirs lists the fixture package directories under testdata.
func fixtureDirs(t *testing.T) (root string, dirs []string) {
	t.Helper()
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture directories under testdata")
	}
	return root, dirs
}

// TestRuleFixtures runs the analyzer over the whole fixture corpus in a
// single pass (sharing one type-checking loader) and compares each
// directory's findings, its helper packages' included, against its
// expect.txt golden file. Re-generate goldens with:
// go test ./internal/lint -run RuleFixtures -update
func TestRuleFixtures(t *testing.T) {
	root, dirs := fixtureDirs(t)
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./" + d + "/..."
	}
	diags, err := Run(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	byDir := map[string][]string{}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		d.Pos.Filename = filepath.ToSlash(rel)
		dir, _, _ := strings.Cut(d.Pos.Filename, "/")
		byDir[dir] = append(byDir[dir], d.String())
	}
	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			got := ""
			if lines := byDir[dir]; len(lines) > 0 {
				got = strings.Join(lines, "\n") + "\n"
			}
			golden := filepath.Join(root, dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSelfCheck keeps the repository clean: the analyzer must report
// nothing over internal/... and cmd/... — the same invocation `make lint`
// runs. Every true positive the analyzer ever found was fixed, since no
// finding can be waived; this test is the regression guard.
func TestSelfCheck(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository not lint-clean: %s", d)
	}
}

// TestDiagnosticFormat pins the file:line: [RULE] message contract.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{Rule: "D001", Message: "no"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 7
	if got, want := d.String(), "a/b.go:7: [D001] no"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestScopeMatch(t *testing.T) {
	cases := []struct {
		pat, rel string
		want     bool
	}{
		{"internal/...", "internal/sim", true},
		{"internal/...", "internal/recovery/logging", true},
		{"internal/...", "internal", true},
		{"internal/...", "cmd/dbmsim", false},
		{"internal/sim", "internal/sim", true},
		{"internal/sim", "internal/simulator", false},
		{"internal/recovery/...", "internal/recovery/shadow", true},
		{"internal/recovery/...", "internal/recover", false},
	}
	for _, c := range cases {
		if got := scopeMatch(c.pat, c.rel); got != c.want {
			t.Errorf("scopeMatch(%q, %q) = %v, want %v", c.pat, c.rel, got, c.want)
		}
	}
}

// TestExpandPatterns checks the go-tool-style walk: testdata and hidden
// directories are skipped, plain patterns must exist.
func TestExpandPatterns(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expandPatterns(root, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		if strings.Contains(filepath.ToSlash(d), "/testdata") {
			t.Errorf("pattern expansion descended into %s", d)
		}
		if filepath.ToSlash(d) == filepath.ToSlash(filepath.Join(root, "internal/lint")) {
			found = true
		}
	}
	if !found {
		t.Error("pattern expansion missed internal/lint itself")
	}
	if _, err := expandPatterns(root, []string{"./no/such/dir"}); err == nil {
		t.Error("nonexistent plain pattern accepted")
	}
}

func TestModulePath(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if got := modulePath(root); got != "repro" {
		t.Errorf("modulePath = %q, want repro", got)
	}
	if got := modulePath(t.TempDir()); got != "fixture" {
		t.Errorf("modulePath without go.mod = %q, want fixture", got)
	}
}

func ExampleDiagnostic_String() {
	d := Diagnostic{Rule: "D003", Message: "map iteration"}
	d.Pos.Filename = "internal/obs/obs.go"
	d.Pos.Line = 12
	fmt.Println(d)
	// Output: internal/obs/obs.go:12: [D003] map iteration
}
