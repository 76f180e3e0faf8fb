package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// importPathDirective lets a fixture file declare the import path its package
// should be analyzed under, so a file in testdata/ can stand in for e.g. a
// repro/cmd/... binary:
//
//	//worksimtest:importpath repro/cmd/fixturetool
const importPathDirective = "//worksimtest:importpath"

// LoadFixture parses and type-checks the one package in dir — a testdata
// fixture outside the module's package graph. Imports resolve like Load's:
// from `go list -export` data, so stdlib references carry real type
// information; import paths that do not resolve (fixture-only repro/...
// paths) fall back to empty stub packages, which suffices for the syntactic
// analyzers as long as the fixture only blank-imports them.
//
// The package's import path is taken from a //worksimtest:importpath
// directive in any file, defaulting to fixture/<dirname>.
func LoadFixture(dir string) (*Package, error) {
	names, err := fixtureSources(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse fixture %s: %w", name, err)
		}
		files = append(files, f)
	}
	path := fixtureImportPath(files)
	if path == "" {
		path = "fixture/" + filepath.Base(dir)
	}

	lk := &exportLookup{dir: dir, exports: make(map[string]string)}
	imp := &stubbingImporter{
		real:  importer.ForCompiler(fset, "gc", lk.lookup),
		stubs: make(map[string]*types.Package),
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", dir, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// fixtureSources lists the .go files of dir in stable order.
func fixtureSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture dir %s: no .go files", dir)
	}
	sort.Strings(names)
	return names, nil
}

// fixtureImportPath extracts the first //worksimtest:importpath directive.
func fixtureImportPath(files []*ast.File) string {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, importPathDirective+" "); ok {
					return strings.TrimSpace(rest)
				}
			}
		}
	}
	return ""
}

// stubbingImporter resolves imports from export data when possible and
// otherwise fabricates an empty, complete package, so fixtures can
// blank-import paths that exist only in the scenario they simulate.
type stubbingImporter struct {
	real  types.Importer
	stubs map[string]*types.Package
}

func (si *stubbingImporter) Import(path string) (*types.Package, error) {
	if p, err := si.real.Import(path); err == nil {
		return p, nil
	}
	if p, ok := si.stubs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	si.stubs[path] = p
	return p, nil
}
