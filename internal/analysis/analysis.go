// Package analysis is the static-analysis layer of the repository: a small
// analyzer framework in the spirit of golang.org/x/tools/go/analysis (which
// the build environment does not vendor), plus the five worksim analyzers
// that make the simulator's core invariants structural rather than
// empirical:
//
//   - determinism: no wall clock, no ambient randomness, no map-ordered
//     output inside the simulation packages (byte-reproducible runs).
//   - facadeboundary: cmd/ and examples/ reach the engine only through
//     repro/worksim..., and internal/ never imports the façade back.
//   - ctxdiscipline: exported blocking APIs of the façade take a leading
//     context.Context, and //worksim:tickloop loops check cancellation and
//     never call time.Sleep.
//   - gohygiene: every go statement in the simulation packages is
//     join-tracked (WaitGroup-style Done, channel send/close, or an
//     observed context), so no goroutine outlives its owner invisibly; and
//     no package calls sync/atomic functions, so shared counters are typed
//     atomics.
//   - escapebudget: the gc compiler's own escape-analysis and inlining
//     diagnostics (go build -gcflags=-m=2), gated per //worksim:hotpath
//     function against the checked-in budgets in lint/escape_budget.json
//     with ratchet semantics — both a new escape and an unrecorded
//     improvement fail, so optimization wins get locked in.
//
// Sync primitives copied by value are go vet's copylocks check, a required
// CI step beside worksimlint; the suite does not repeat it.
//
// Three comment directives steer the analyzers:
//
//	//worksim:allow <reason>    suppress diagnostics on this or the next line
//	//worksim:hotpath           gate a function's escape profile against lint/escape_budget.json
//	//worksim:tickloop          mark a loop that must observe ctx cancellation
//
// An allow directive without a reason suppresses nothing and is itself
// reported, so every suppression stays auditable; worksimlint -audit emits
// the full suppression inventory and fails on directives that suppress
// nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Run inspects a single type-checked
// package via the Pass and reports findings with Pass.Reportf. Module-level
// analyzers set RunModule instead and see the whole loaded package set at
// once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI listings.
	Name string
	// Doc is the one-paragraph description shown by `worksimlint -list`.
	Doc string
	// Run performs the check on one package. It must not retain the Pass.
	// Nil for module-level analyzers.
	Run func(*Pass) error
	// RunModule, when set, runs once over the whole loaded module instead
	// of per package. root is the module root directory; analyzers that
	// consult external ground truth (the compiler, checked-in budget files)
	// resolve paths against it. RunModule analyzers only execute under
	// RunRoot — Run (rootless, used by fixtures) skips them.
	RunModule func(root string, pkgs []*Package) ([]Diagnostic, error)
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files, parsed with comments.
	Files []*ast.File
	// Path is the package import path (e.g. repro/internal/worksite).
	Path string
	// Pkg is the type-checked package; nil when type checking was skipped
	// (syntactic fixtures). Analyzers needing types must tolerate nil Info
	// lookups.
	Pkg *types.Package
	// Info holds type information for the package's syntax trees.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos. Suppression via //worksim:allow is
// applied by the driver after the analyzer returns.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directives are the //worksim:* comment markers of one package, indexed for
// the driver (allow) and the analyzers (escapebudget, tickloop).
type directives struct {
	// allow maps file -> line -> reason for well-formed allow directives.
	// The directive suppresses diagnostics on its own line and, when it
	// stands alone on a line, on the directive's following line.
	allow map[string]map[int]string
	// malformed are allow directives without a reason.
	malformed []Diagnostic
}

const (
	allowPrefix       = "//worksim:allow"
	HotpathDirective  = "//worksim:hotpath"
	TickloopDirective = "//worksim:tickloop"
)

// collectDirectives scans the comments of files for //worksim:allow markers.
func collectDirectives(fset *token.FileSet, files []*ast.File) directives {
	d := directives{allow: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //worksim:allowance — not our directive
				}
				pos := fset.Position(c.Pos())
				reason := strings.TrimSpace(rest)
				if reason == "" {
					d.malformed = append(d.malformed, Diagnostic{
						Analyzer: "allowdirective",
						Pos:      pos,
						Message:  "//worksim:allow requires a reason (//worksim:allow <why this is safe>); the bare directive suppresses nothing",
					})
					continue
				}
				lines := d.allow[pos.Filename]
				if lines == nil {
					lines = make(map[int]string)
					d.allow[pos.Filename] = lines
				}
				lines[pos.Line] = reason
			}
		}
	}
	return d
}

// suppressed reports whether a diagnostic at pos is covered by an allow
// directive on the same line or on the line directly above.
func (d directives) suppressed(pos token.Position) bool {
	lines := d.allow[pos.Filename]
	if lines == nil {
		return false
	}
	if _, ok := lines[pos.Line]; ok {
		return true
	}
	_, ok := lines[pos.Line-1]
	return ok
}

// HasDirective reports whether the comment group contains the given
// stand-alone directive (e.g. //worksim:hotpath) as a whole comment line,
// optionally followed by explanatory text after a space.
func HasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// RunPackage runs one analyzer over one loaded package and returns its
// diagnostics with //worksim:allow suppression applied.
func RunPackage(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Path:     pkg.Path,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	dir := collectDirectives(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !dir.suppressed(d.Pos) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// Run executes every per-package analyzer over every package and returns the
// combined, position-sorted findings. Malformed //worksim:allow directives
// are reported once per package under the synthetic check name
// "allowdirective". Module-level analyzers (RunModule) are skipped — use
// RunRoot when a module root is known.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunRoot("", pkgs, analyzers)
}

// RunRoot executes the full analyzer set — per-package and, when root is
// non-empty, module-level — over the loaded packages. //worksim:allow
// suppression is applied across the whole set, so a module-level diagnostic
// landing on an allowed line is suppressed exactly like a per-package one,
// and the result is sorted by (file, line, col, analyzer, message) so output
// is deterministic run over run.
func RunRoot(root string, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, dirs, err := runRaw(root, pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if d.Analyzer == "allowdirective" || !dirs.suppressed(d.Pos) {
			kept = append(kept, d)
		}
	}
	SortDiagnostics(kept)
	return kept, nil
}

// runRaw produces the unsuppressed diagnostics of every analyzer plus the
// union of the packages' allow directives — the shared substrate of RunRoot
// and the -audit ledger.
func runRaw(root string, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, directives, error) {
	union := directives{allow: make(map[string]map[int]string)}
	var all []Diagnostic
	for _, pkg := range pkgs {
		dir := collectDirectives(pkg.Fset, pkg.Files)
		all = append(all, dir.malformed...)
		for file, lines := range dir.allow {
			if union.allow[file] == nil {
				union.allow[file] = lines
				continue
			}
			for line, reason := range lines {
				union.allow[file][line] = reason
			}
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, directives{}, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			all = append(all, diags...)
		}
	}
	if root != "" {
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			diags, err := a.RunModule(root, pkgs)
			if err != nil {
				return nil, directives{}, fmt.Errorf("%s: %w", a.Name, err)
			}
			all = append(all, diags...)
		}
	}
	return all, union, nil
}

// SortDiagnostics orders diagnostics by (file, line, col, analyzer, message)
// — the stable order both output modes print in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// All returns the full worksim analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, FacadeBoundary, CtxDiscipline,
		GoHygiene, EscapeBudgetAnalyzer,
	}
}
