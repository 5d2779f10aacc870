// Command simlint is the repository's determinism and simulator-invariant
// analyzer (see internal/lint and docs/LINTING.md).
//
// Usage:
//
//	go run ./cmd/simlint [flags] [patterns...]
//
// Patterns are module-relative package patterns ("./internal/...",
// "./cmd/simlint"); with no patterns it checks ./internal/... and
// ./cmd/... . Every run applies all seven rules, and every finding fails
// it: there is no rule subset and no waiver comment. Exit status: 0
// clean, 1 findings, 2 usage or load error. With -json the findings are
// written as a machine-readable report on stdout (the exit-status
// contract is unchanged).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flag parsing,
// analysis, and rendering, with the exit status returned instead of
// raised.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the rule table and exit")
	jsonOut := fs.Bool("json", false, "write findings as a JSON report on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-list] [-json] [patterns...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range lint.Rules {
			fmt.Fprintf(stdout, "%s  %s  (scope: %s)\n", r.ID, r.Short, strings.Join(r.Scope, ", "))
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		return fatal(stderr, err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}

	diags, err := lint.Run(root, patterns)
	if err != nil {
		return fatal(stderr, err)
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, root, diags); err != nil {
			return fatal(stderr, err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "simlint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "simlint:", err)
	return 2
}
