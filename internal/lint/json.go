package lint

// json.go renders a diagnostic list as a machine-readable report for CI
// artifacts. The encoding is deterministic: diagnostics arrive sorted
// from Run, field order is fixed by the struct, and paths are
// module-relative, so the same tree always produces byte-identical
// output (the cmd/simlint tests pin it as a golden file).

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// JSONFinding is the machine-readable form of one Diagnostic.
type JSONFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// JSONReport is the top-level document written by WriteJSON.
type JSONReport struct {
	Findings []JSONFinding `json:"findings"`
	Failures int           `json:"failures"`
}

// WriteJSON writes diags as an indented JSON report followed by a
// newline. Paths are rewritten relative to root (slash-separated), so
// the report is byte-identical wherever the module is checked out.
// Every finding fails the run, so Failures is the finding count.
func WriteJSON(w io.Writer, root string, diags []Diagnostic) error {
	rep := JSONReport{Findings: make([]JSONFinding, 0, len(diags)), Failures: len(diags)}
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && filepath.IsLocal(rel) {
			file = rel
		}
		rep.Findings = append(rep.Findings, JSONFinding{
			File:    filepath.ToSlash(file),
			Line:    d.Pos.Line,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
