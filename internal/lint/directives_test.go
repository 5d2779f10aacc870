package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) *directives {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return parseDirectives(fset, f)
}

func TestParseDirectivesValid(t *testing.T) {
	d := parseSrc(t, `package p

//simlint:path internal/sim
var x int
`)
	if d.pathOverride != "internal/sim" {
		t.Errorf("pathOverride = %q", d.pathOverride)
	}
	if len(d.malformed) != 0 {
		t.Errorf("unexpected malformed diagnostics: %v", d.malformed)
	}
}

func TestParseDirectivesLeadingSpace(t *testing.T) {
	// A space after // is tolerated; directives stay line comments only.
	d := parseSrc(t, `package p

// simlint:path internal/wal
var x int

/*simlint:path internal/sim*/
var y int
`)
	if d.pathOverride != "internal/wal" {
		t.Errorf("pathOverride = %q, want the line-comment one", d.pathOverride)
	}
	if len(d.malformed) != 0 {
		t.Errorf("unexpected malformed diagnostics: %v", d.malformed)
	}
}

func TestParseDirectivesUnknownVerb(t *testing.T) {
	for _, src := range []string{
		"package p\n\n//simlint:silence D001 wrong verb\nvar x int\n",
		// There are no waivers: an ignore comment is an unknown verb.
		"package p\n\n//simlint:ignore D001 reason\nvar x int\n",
	} {
		d := parseSrc(t, src)
		if len(d.malformed) != 1 || d.malformed[0].Rule != "LINT" ||
			!strings.Contains(d.malformed[0].Message, "unknown simlint directive") {
			t.Errorf("%q: malformed = %v", src, d.malformed)
		}
	}
}
