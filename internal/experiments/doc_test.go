package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocCurrent regenerates every table at paper scale, as
// `dbmsim -table all -format md` prints it, and compares each with its
// section below the rule in EXPERIMENTS.md, so that a change that moves a
// published number must update the document too:
//
//	go run ./cmd/dbmsim -table all -format md
//
// prints what belongs below the rule.
func TestExperimentsDocCurrent(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, tail, ok := strings.Cut(string(doc), "\n---\n\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no rule before its tables")
	}
	sections := map[string]string{}
	for _, s := range strings.SplitAfter(tail, "\n\n### ") {
		s = "### " + strings.TrimPrefix(strings.TrimSuffix(s, "### "), "### ")
		head, _, _ := strings.Cut(s, "\n")
		sections[head] = s
	}
	tabs, err := RunAll(IDs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		want := tab.RenderMarkdown()
		head, _, _ := strings.Cut(want, "\n")
		got, ok := sections[head]
		delete(sections, head)
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md has no section %q", head)
		case got != want:
			t.Errorf("EXPERIMENTS.md section %q is stale:\n--- document ---\n%s--- regenerated ---\n%s", head, got, want)
		}
	}
	for head := range sections {
		t.Errorf("EXPERIMENTS.md section %q is no table dbmsim prints", head)
	}
}
