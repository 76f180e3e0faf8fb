package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxDiscipline enforces the cancellation contract introduced with the
// worksim façade:
//
//   - exported façade APIs (repro/worksim...) that take a context.Context
//     take it as the first parameter, the Go convention every caller and
//     linter assumes.
//   - exported façade functions containing a statically unbounded loop
//     (`for { ... }` / `for cond { ... }`) are blocking APIs and must accept
//     a leading context.Context, so no public entry point can spin without a
//     cancellation seam.
//   - loops marked //worksim:tickloop — the simulation-advancing loops that
//     may run for millions of iterations — must actually consult their
//     context (ctx.Err() or ctx.Done()) in the loop body. Deleting the
//     per-tick cancellation check turns mid-run cancellation into a no-op;
//     this rule makes that a lint failure instead of a flaky test. The same
//     loops must not call time.Sleep: the simulation advances on virtual
//     time, so a host sleep stalls the scheduler without simulating
//     anything.
var CtxDiscipline = &Analyzer{
	Name: "ctxdiscipline",
	Doc: "require leading context.Context on exported blocking façade APIs, and " +
		"a cancellation check and no time.Sleep inside every //worksim:tickloop loop",
	Run: runCtxDiscipline,
}

func runCtxDiscipline(pass *Pass) error {
	facade := pass.Path == "repro/worksim" || strings.HasPrefix(pass.Path, "repro/worksim/")
	for _, f := range pass.Files {
		tickLines := directiveEndLines(pass.Fset, f, TickloopDirective)
		if facade {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok {
					checkExportedSignature(pass, fn)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			line := pass.Fset.Position(n.Pos()).Line
			if !tickLines[line-1] {
				return true
			}
			if !containsCtxCheck(pass.Info, body) {
				pass.Reportf(n.Pos(), "loop marked //worksim:tickloop must check cancellation each iteration (ctx.Err() or ctx.Done()); without it mid-run cancellation is a no-op")
			}
			reportHostSleeps(pass, body)
			return true
		})
	}
	return nil
}

// reportHostSleeps flags every time.Sleep call in a tick loop's body.
func reportHostSleeps(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgFuncCall(pass.Info, call, "time"); ok && name == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep inside a //worksim:tickloop loop stalls the scheduler on host time; advance virtual time through the simulation clock instead")
		}
		return true
	})
}

// checkExportedSignature applies the façade signature rules to one function
// declaration.
func checkExportedSignature(pass *Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || !exportedReceiver(fn) || fn.Type.Params == nil {
		return
	}
	ctxAt := -1
	idx := 0
	for _, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.Info, field.Type) && ctxAt < 0 {
			ctxAt = idx
		}
		idx += n
	}
	switch {
	case ctxAt > 0:
		pass.Reportf(fn.Pos(), "%s: context.Context must be the first parameter of an exported façade API", fn.Name.Name)
	case ctxAt < 0 && fn.Body != nil && hasUnboundedLoop(fn.Body):
		pass.Reportf(fn.Pos(), "%s: exported façade API contains an unbounded loop but takes no context.Context; blocking entry points need a leading ctx for cancellation", fn.Name.Name)
	}
}

// exportedReceiver reports whether fn is a plain function or a method on an
// exported named type — the combinations that form public API.
func exportedReceiver(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// hasUnboundedLoop reports whether the body contains (outside nested
// function literals) a for statement with no init and no post clause — the
// `for {}` / `for cond {}` shapes whose trip count nothing bounds
// statically.
func hasUnboundedLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Init == nil && n.Post == nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsCtxCheck reports whether the loop body consults a context:
// a call to .Err() or .Done() on a context.Context value.
func containsCtxCheck(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
			return !found
		}
		if isContextValue(info, sel.X) {
			found = true
		}
		return !found
	})
	return found
}

// isContextType reports whether a parameter type expression denotes
// context.Context, by type information when available and syntactically
// otherwise.
func isContextType(info *types.Info, expr ast.Expr) bool {
	if info != nil {
		if tv, ok := info.Types[expr]; ok {
			return isContext(tv.Type)
		}
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}

// isContextValue reports whether expr is a value of type context.Context.
func isContextValue(info *types.Info, expr ast.Expr) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[expr]
	return ok && isContext(tv.Type)
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// directiveEndLines returns the set of lines on which a comment group
// carrying the given directive ends, so a statement starting on line+1 is
// considered annotated.
func directiveEndLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		if HasDirective(cg, directive) {
			lines[fset.Position(cg.End()).Line] = true
		}
	}
	return lines
}
