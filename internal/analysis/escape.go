package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EscapeBudgetAnalyzer gates every //worksim:hotpath function against the
// gc compiler's own escape-analysis and inlining decisions: `go build
// -gcflags=-m=2` diagnostics, attributed to their enclosing functions and
// compared against the checked-in per-function budgets in
// lint/escape_budget.json. Allocations no diagnostic shows, such as append
// growth, are left to the AllocsPerRun tests.
//
// The comparison is a ratchet, in both directions:
//
//   - more escapes (or a new inlining failure) than budgeted fails — an
//     allocation regressed exactly where the zero-alloc campaign works.
//   - fewer than budgeted also fails, until the budget is re-recorded with
//     `worksimlint -update-budget` — so an optimization win is locked in
//     the moment it lands instead of silently eroding later.
//
// Budgets are coupled to the compiler that produced them: the budget file
// records the go minor version, and a toolchain mismatch is a finding (not
// a silent skip), because escape analysis changes between releases.
// escapeBudgetName is referenced from runEscapeBudget's diagnostics; a named
// constant keeps the initialization graph acyclic.
const escapeBudgetName = "escapebudget"

var EscapeBudgetAnalyzer = &Analyzer{
	Name: escapeBudgetName,
	Doc: "gate //worksim:hotpath functions against per-function compiler escape/" +
		"inline budgets (lint/escape_budget.json) with ratchet semantics",
	RunModule: runEscapeBudget,
}

// EscapeBudgetPath is the budget file, relative to the module root.
const EscapeBudgetPath = "lint/escape_budget.json"

// escapeBudgetVersion is the schema version stamped into the budget file.
const escapeBudgetVersion = 1

// An EscapeDiag is one parsed compiler diagnostic of interest.
type EscapeDiag struct {
	File string // absolute path
	Line int
	Col  int
	// Kind is "escape" (heap escape / moved to heap) or "noinline"
	// (inlining failure).
	Kind string
	// Message is the compiler's one-line diagnostic text.
	Message string
}

// FuncBudget is the recorded compiler profile of one hot-path function.
type FuncBudget struct {
	// Escapes counts distinct heap-escape positions inside the function
	// ("escapes to heap" and "moved to heap" diagnostics).
	Escapes int `json:"escapes"`
	// InlineFailures counts "cannot inline" diagnostics inside the
	// function's span (the function itself and any closures it contains).
	InlineFailures int `json:"inlineFailures"`
}

// EscapeBudget is the checked-in lint/escape_budget.json model: per-package,
// per-function compiler budgets plus the toolchain that recorded them.
type EscapeBudget struct {
	Version int `json:"version"`
	// Go is the major.minor toolchain the budgets were recorded with
	// (e.g. "go1.24"); escape analysis changes between releases, so a
	// mismatch is a finding rather than a silent skip.
	Go string `json:"go"`
	// Packages maps import path -> function key -> budget. Function keys
	// follow the compiler's spelling: "Seal", "(*Channel).Open".
	Packages map[string]map[string]FuncBudget `json:"packages"`
}

// LoadEscapeBudget reads the budget file under root. A missing file returns
// (nil, nil): the caller decides whether that is a finding.
func LoadEscapeBudget(root string) (*EscapeBudget, error) {
	data, err := os.ReadFile(filepath.Join(root, EscapeBudgetPath))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", EscapeBudgetPath, err)
	}
	var b EscapeBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", EscapeBudgetPath, err)
	}
	return &b, nil
}

// WriteEscapeBudget writes the budget file under root (creating lint/),
// with sorted keys so the file is byte-stable for a given code state.
func WriteEscapeBudget(root string, b *EscapeBudget) error {
	path := filepath.Join(root, EscapeBudgetPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goToolVersion returns the major.minor version of the go tool that will
// compile the module (e.g. "go1.24") — the budget's compatibility key.
func goToolVersion(root string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %w", err)
	}
	full := strings.TrimSpace(string(out)) // e.g. go1.24.0
	if i := strings.LastIndexByte(full, '.'); strings.Count(full, ".") == 2 && i > 0 {
		return full[:i], nil
	}
	return full, nil
}

// CollectEscapes compiles the loaded packages with -gcflags=-m=2 and parses
// the compiler's escape and inlining diagnostics. The build cache replays
// compiler output, so warm runs cost no recompilation. Binaries of main
// packages land in a throwaway directory.
func CollectEscapes(root string, pkgs []*Package) ([]EscapeDiag, error) {
	paths := make([]string, 0, len(pkgs))
	hasMain := false
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if p.Types != nil && p.Types.Name() == "main" {
			hasMain = true
		}
	}
	args := []string{"build", "-gcflags=-m=2"}
	if hasMain {
		tmp, err := os.MkdirTemp("", "worksimlint-escape-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		args = append(args, "-o", tmp)
	}
	cmd := exec.Command("go", append(args, paths...)...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, stderr.String())
	}
	return ParseEscapeDiags(root, &stderr)
}

// ParseEscapeDiags extracts heap-escape and inlining-failure diagnostics
// from -gcflags=-m=2 output. Flow-trace continuations, "does not escape"
// notes, "# package" headers and <autogenerated> positions are dropped, and
// the surviving diagnostics are deduplicated by position and message (the
// compiler re-reports an escape once per inlining context).
func ParseEscapeDiags(root string, r io.Reader) ([]EscapeDiag, error) {
	seen := make(map[string]bool)
	var out []EscapeDiag
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "<autogenerated>") {
			continue
		}
		d, ok := parseEscapeLine(root, line)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s", d.File, d.Line, d.Col, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan -m output: %w", err)
	}
	return out, nil
}

// parseEscapeLine classifies one "file:line:col: message" compiler line.
func parseEscapeLine(root, line string) (EscapeDiag, bool) {
	file, rest, ok := strings.Cut(line, ":")
	if !ok || file == "" {
		return EscapeDiag{}, false
	}
	lineStr, rest, ok := strings.Cut(rest, ":")
	if !ok {
		return EscapeDiag{}, false
	}
	colStr, msg, ok := strings.Cut(rest, ":")
	if !ok {
		return EscapeDiag{}, false
	}
	ln, err1 := strconv.Atoi(lineStr)
	col, err2 := strconv.Atoi(colStr)
	if err1 != nil || err2 != nil {
		return EscapeDiag{}, false
	}
	msg = strings.TrimPrefix(msg, " ")
	if msg == "" || msg[0] == ' ' || msg[0] == '\t' {
		return EscapeDiag{}, false // indented flow-trace continuation
	}
	msg = strings.TrimSuffix(msg, ":") // the flow-introducing variant
	kind := ""
	switch {
	case strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap"):
		kind = "escape"
	case strings.HasPrefix(msg, "cannot inline"):
		kind = "noinline"
	default:
		return EscapeDiag{}, false
	}
	if !filepath.IsAbs(file) {
		file = filepath.Join(root, file)
	}
	return EscapeDiag{File: file, Line: ln, Col: col, Kind: kind, Message: msg}, true
}

// hotFunc is one //worksim:hotpath function resolved to its source span.
type hotFunc struct {
	pkg        string // import path
	key        string // compiler-style name: "Seal", "(*Channel).Open"
	file       string // absolute
	start, end int    // line span (inclusive)
	pos        token.Position
}

// hotpathFuncs collects every annotated function of the loaded packages.
func hotpathFuncs(pkgs []*Package) []hotFunc {
	var out []hotFunc
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !HasDirective(fn.Doc, HotpathDirective) {
					continue
				}
				start := pkg.Fset.Position(fn.Pos())
				end := pkg.Fset.Position(fn.End())
				out = append(out, hotFunc{
					pkg:   pkg.Path,
					key:   funcKey(fn),
					file:  start.Filename,
					start: start.Line,
					end:   end.Line,
					pos:   start,
				})
			}
		}
	}
	return out
}

// funcKey renders a function name the way the compiler spells it in
// diagnostics: "Seal" for functions, "(*Channel).Open" / "Identity.Sign"
// for methods.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := types.ExprString(fn.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		return "(" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// observeBudgets attributes compiler diagnostics to hot-path functions by
// span containment and returns the per-function observed profile plus the
// raw escape diags per function key for reporting.
func observeBudgets(hot []hotFunc, diags []EscapeDiag) (map[string]FuncBudget, map[string][]EscapeDiag) {
	counts := make(map[string]FuncBudget, len(hot))
	detail := make(map[string][]EscapeDiag)
	for _, hf := range hot {
		id := hf.pkg + "\x00" + hf.key
		counts[id] = FuncBudget{}
		for _, d := range diags {
			if d.File != hf.file || d.Line < hf.start || d.Line > hf.end {
				continue
			}
			c := counts[id]
			switch d.Kind {
			case "escape":
				c.Escapes++
				detail[id] = append(detail[id], d)
			case "noinline":
				c.InlineFailures++
			}
			counts[id] = c
		}
	}
	return counts, detail
}

// runEscapeBudget is the analyzer entry point: collect compiler diagnostics
// for the loaded packages and gate every hot-path function against the
// checked-in budget.
func runEscapeBudget(root string, pkgs []*Package) ([]Diagnostic, error) {
	hot := hotpathFuncs(pkgs)
	if len(hot) == 0 {
		return nil, nil
	}
	budget, err := LoadEscapeBudget(root)
	if err != nil {
		return nil, err
	}
	budgetPos := token.Position{Filename: filepath.Join(root, EscapeBudgetPath), Line: 1, Column: 1}
	if budget == nil {
		return []Diagnostic{{
			Analyzer: escapeBudgetName,
			Pos:      budgetPos,
			Message:  fmt.Sprintf("%s missing but %d //worksim:hotpath function(s) loaded; record budgets with `worksimlint -update-budget`", EscapeBudgetPath, len(hot)),
		}}, nil
	}
	tool, err := goToolVersion(root)
	if err != nil {
		return nil, err
	}
	if budget.Go != tool {
		return []Diagnostic{{
			Analyzer: escapeBudgetName,
			Pos:      budgetPos,
			Message: fmt.Sprintf("escape budgets were recorded with %s but the active toolchain is %s; escape analysis differs between releases — re-record with `worksimlint -update-budget` under the pinned toolchain",
				budget.Go, tool),
		}}, nil
	}
	diags, err := CollectEscapes(root, pkgs)
	if err != nil {
		return nil, err
	}
	return GateEscapeBudget(root, pkgs, hot, diags, budget), nil
}

// GateEscapeBudget compares observed compiler diagnostics against the budget
// and returns the ratchet findings: regressions, unrecorded improvements,
// missing entries, and orphaned entries for packages in the loaded set.
func GateEscapeBudget(root string, pkgs []*Package, hot []hotFunc, diags []EscapeDiag, budget *EscapeBudget) []Diagnostic {
	counts, detail := observeBudgets(hot, diags)
	var out []Diagnostic
	report := func(pos token.Position, format string, args ...interface{}) {
		out = append(out, Diagnostic{
			Analyzer: escapeBudgetName,
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, hf := range hot {
		id := hf.pkg + "\x00" + hf.key
		obs := counts[id]
		want, ok := budget.Packages[hf.pkg][hf.key]
		if !ok {
			report(hf.pos, "%s has no entry in %s; record its budget with `worksimlint -update-budget`", hf.key, EscapeBudgetPath)
			continue
		}
		switch {
		case obs.Escapes > want.Escapes:
			report(hf.pos, "escape regression: %s now has %d heap escape(s), budget is %d — %s; optimize the new allocation away or consciously re-record with `worksimlint -update-budget`",
				hf.key, obs.Escapes, want.Escapes, summarizeEscapes(root, detail[id]))
		case obs.Escapes < want.Escapes:
			report(hf.pos, "escape improvement not ratcheted: %s now has %d heap escape(s), budget still says %d; lock the win in with `worksimlint -update-budget`",
				hf.key, obs.Escapes, want.Escapes)
		}
		switch {
		case obs.InlineFailures > want.InlineFailures:
			report(hf.pos, "inlining regression: %s now has %d `cannot inline` diagnostic(s), budget is %d; simplify the function or re-record with `worksimlint -update-budget`",
				hf.key, obs.InlineFailures, want.InlineFailures)
		case obs.InlineFailures < want.InlineFailures:
			report(hf.pos, "inlining improvement not ratcheted: %s now has %d `cannot inline` diagnostic(s), budget still says %d; lock the win in with `worksimlint -update-budget`",
				hf.key, obs.InlineFailures, want.InlineFailures)
		}
	}
	// Orphans: budget entries for loaded packages whose function is gone or
	// no longer annotated. Packages outside the loaded set are left alone so
	// linting a subset never reports the rest of the budget as stale.
	loaded := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	known := make(map[string]bool, len(hot))
	for _, hf := range hot {
		known[hf.pkg+"\x00"+hf.key] = true
	}
	budgetPos := token.Position{Filename: filepath.Join(root, EscapeBudgetPath), Line: 1, Column: 1}
	var orphans []string
	for pkgPath, fns := range budget.Packages {
		if !loaded[pkgPath] {
			continue
		}
		for key := range fns {
			if !known[pkgPath+"\x00"+key] {
				orphans = append(orphans, pkgPath+"."+key)
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		report(budgetPos, "orphaned budget entry %s: the function is gone or no longer //worksim:hotpath; prune it with `worksimlint -update-budget`", o)
	}
	return out
}

// summarizeEscapes renders up to three escape positions for a regression
// message, root-relative for readability.
func summarizeEscapes(root string, diags []EscapeDiag) string {
	if len(diags) == 0 {
		return "no positions attributed"
	}
	n := len(diags)
	if n > 3 {
		n = 3
	}
	parts := make([]string, 0, n)
	for _, d := range diags[:n] {
		file := d.File
		if rel, err := filepath.Rel(root, file); err == nil {
			file = rel
		}
		parts = append(parts, fmt.Sprintf("%s:%d:%d: %s", file, d.Line, d.Col, d.Message))
	}
	s := strings.Join(parts, "; ")
	if len(diags) > n {
		s += fmt.Sprintf("; +%d more", len(diags)-n)
	}
	return s
}

// UpdateEscapeBudget re-records budgets for every hot-path function of the
// loaded packages, merging into any existing budget file: entries for loaded
// packages are replaced wholesale (pruning orphans), entries for packages
// outside the loaded set are preserved. Returns the number of recorded
// functions.
func UpdateEscapeBudget(root string, pkgs []*Package) (int, error) {
	hot := hotpathFuncs(pkgs)
	diags, err := CollectEscapes(root, pkgs)
	if err != nil {
		return 0, err
	}
	counts, _ := observeBudgets(hot, diags)
	tool, err := goToolVersion(root)
	if err != nil {
		return 0, err
	}
	budget, err := LoadEscapeBudget(root)
	if err != nil {
		return 0, err
	}
	if budget == nil {
		budget = &EscapeBudget{}
	}
	budget.Version = escapeBudgetVersion
	budget.Go = tool
	if budget.Packages == nil {
		budget.Packages = make(map[string]map[string]FuncBudget)
	}
	for _, p := range pkgs {
		delete(budget.Packages, p.Path)
	}
	for _, hf := range hot {
		fns := budget.Packages[hf.pkg]
		if fns == nil {
			fns = make(map[string]FuncBudget)
			budget.Packages[hf.pkg] = fns
		}
		fns[hf.key] = counts[hf.pkg+"\x00"+hf.key]
	}
	if err := WriteEscapeBudget(root, budget); err != nil {
		return 0, err
	}
	return len(hot), nil
}
