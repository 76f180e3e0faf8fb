// Package analysistest drives one worksim analyzer over a fixture directory
// and checks the emitted diagnostics against expectation comments in the
// fixture sources, in the spirit of golang.org/x/tools/go/analysis/analysistest:
//
//	x := time.Now() // want `time\.Now reads the wall clock`
//
// A `// want` comment expects, on its own line, one diagnostic per quoted
// regular expression (backquoted or double-quoted Go string syntax). Every
// diagnostic must be claimed by exactly one expectation and every expectation
// must be claimed by exactly one diagnostic, so fixtures prove both the true
// positives and the //worksim:allow-suppressed negatives of each analyzer.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantMarker introduces an expectation comment.
const wantMarker = "// want "

// stringLit matches one backquoted or double-quoted Go string literal.
var stringLit = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one parsed `// want` regexp, anchored to a source line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	claimed bool
}

// Run loads the fixture package in dir, applies the analyzer, and fails the
// test unless diagnostics and `// want` expectations match one-to-one.
// Malformed //worksim:allow directives surface like any other diagnostic
// (analyzer name "allowdirective") and can be expected the same way.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadFixture(dir)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	Check(t, pkg, diags)
}

// Check fails the test unless diags and the `// want` expectations of the
// loaded fixture package match one-to-one. Diagnostics from a checker
// outside the suite, such as go vet, are checked the same way once
// converted, with file names spelled as the package's own.
func Check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.claimed {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// collectWants parses every `// want` comment of the fixture package.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, strings.TrimSuffix(wantMarker, " "))
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lits := stringLit.FindAllString(rest, -1)
				if len(lits) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q: no quoted regexp", pos.Filename, pos.Line, c.Text)
				}
				for _, lit := range lits {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: malformed want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, lit, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: lit})
				}
			}
		}
	}
	return wants
}

// claim marks the first unclaimed expectation matching the diagnostic.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.claimed && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.claimed = true
			return true
		}
	}
	return false
}
