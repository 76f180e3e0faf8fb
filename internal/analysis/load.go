package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package under analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
	DepsErrors []struct{ Err string }
}

// golist runs `go list` with the given arguments in dir and decodes the
// JSON package stream.
func golist(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup resolves import paths to compiled export data produced by
// `go list -export`. It backs the stdlib gc importer, so dependencies —
// standard library and module packages alike — are imported from export
// data rather than re-type-checked from source.
type exportLookup struct {
	dir     string
	exports map[string]string
}

func (l *exportLookup) lookup(path string) (io.ReadCloser, error) {
	if f, ok := l.exports[path]; ok {
		return os.Open(f)
	}
	// Lazily resolve paths outside the already-listed dependency closure
	// (e.g. a fixture importing a stdlib package the repo itself does not
	// use).
	pkgs, err := golist(l.dir, "-deps", "-export", "-json", "--", path)
	if err != nil {
		return nil, fmt.Errorf("no export data for %q: %w", path, err)
	}
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	if f, ok := l.exports[path]; ok {
		return os.Open(f)
	}
	return nil, fmt.Errorf("no export data for %q", path)
}

// Load resolves patterns (e.g. "./...") against the Go module rooted at or
// above dir and returns the matched packages parsed with comments and fully
// type-checked. Test files are excluded: the analyzers guard the shipped
// simulation code, and tests legitimately use wall clock and ad-hoc output.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := golist(dir, append([]string{"-json", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	deps, err := golist(dir, append([]string{"-deps", "-export", "-json", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	lk := &exportLookup{dir: dir, exports: make(map[string]string, len(deps))}
	for _, p := range deps {
		if p.Export != "" {
			lk.exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lk.lookup)
	var out []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("package %s: %s", t.ImportPath, t.Error.Err)
		}
		pkg, err := typecheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// newInfo allocates the type information the analyzers read: expression
// types and identifier uses.
func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

// typecheck parses and type-checks one listed package from source, importing
// its dependencies from export data.
func typecheck(fset *token.FileSet, imp types.Importer, t listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", t.ImportPath, err)
	}
	return &Package{
		Path:  t.ImportPath,
		Dir:   t.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ModuleRoot locates the root directory of the enclosing Go module — the
// anchor both the repo-lint test and the CLI resolve "./..." against.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD = %q)", gomod)
	}
	return filepath.Dir(gomod), nil
}
