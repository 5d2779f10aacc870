package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directives is everything simlint-specific found in one file's comments.
type directives struct {
	// pathOverride rewrites the module-relative path used for rule
	// scoping ("//simlint:path internal/sim"); the fixture corpus uses it
	// to stand in for kernel packages.
	pathOverride string
	malformed    []Diagnostic
}

// parseDirectives scans a file's comments for simlint directives. The
// only verb is "path"; anything else — a leftover "//simlint:ignore"
// included — is reported as a [LINT] error, so no comment can waive or
// silently disable a check.
func parseDirectives(fset *token.FileSet, file *ast.File) *directives {
	d := &directives{}
	for _, group := range file.Comments {
		for _, cm := range group.List {
			text, isLine := strings.CutPrefix(cm.Text, "//")
			if !isLine {
				continue // only line comments carry directives
			}
			rest, isDirective := strings.CutPrefix(strings.TrimSpace(text), "simlint:")
			if !isDirective {
				continue
			}
			pos := fset.Position(cm.Pos())
			verb, arg, _ := strings.Cut(rest, " ")
			switch {
			case verb != "path":
				d.malformed = append(d.malformed, Diagnostic{Pos: pos, Rule: "LINT",
					Message: fmt.Sprintf("unknown simlint directive %q (known: path)", verb)})
			case strings.TrimSpace(arg) == "":
				d.malformed = append(d.malformed, Diagnostic{Pos: pos, Rule: "LINT",
					Message: "simlint:path needs a module-relative package path"})
			default:
				d.pathOverride = strings.TrimSpace(arg)
			}
		}
	}
	return d
}
