package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoHygiene enforces two concurrency rules whose violations the race
// detector only catches when a schedule happens to expose them.
//
// Inside the simulation packages (repro/internal/... and repro/worksim...),
// every go statement is join-tracked: the engine promises "cancelled Sweep
// drains goroutines" and the serve layer promises a graceful drain, so a
// goroutine nothing can wait for is a leak. A go statement passes when its
// completion is observable:
//
//   - the spawned call carries a context.Context argument (the goroutine
//     participates in the cancellation tree), or
//   - the goroutine is a function literal that signals on its way out: a
//     Done/Add/Wait call on a sync.WaitGroup-like type (any named type
//     containing "Group", such as errgroup.Group), a send on a channel, a
//     close(), or an observed context value.
//
// In every package, shared counters and flags are typed atomics
// (atomic.Int64, atomic.Bool, atomic.Pointer[T], …): any call to a
// sync/atomic package function such as atomic.AddInt64(&x.n, 1) is
// reported. Such a call leaves the field open to plain loads and stores
// that race with it, while a typed atomic admits no other access.
//
// Deliberate exceptions carry //worksim:allow <reason>.
var GoHygiene = &Analyzer{
	Name: "gohygiene",
	Doc: "require every go statement in the simulation packages to be " +
		"join-tracked (WaitGroup/…Group, channel send/close, or an observed context), " +
		"and typed atomics instead of sync/atomic functions everywhere",
	Run: runGoHygiene,
}

func runGoHygiene(pass *Pass) error {
	simulation := simulationPackage(pass.Path)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if simulation && !joinTracked(pass.Info, n) {
					pass.Reportf(n.Pos(), "go statement is not join-tracked: nothing can wait for this goroutine (no WaitGroup/…Group signal, channel send/close, or context in the spawned code); leaks like this survive until the race detector gets lucky — track it or mark deliberate fire-and-forget with //worksim:allow <reason>")
				}
			case *ast.CallExpr:
				if name, ok := pkgFuncCall(pass.Info, n, "sync/atomic"); ok {
					pass.Reportf(n.Pos(), "atomic.%s on a plain variable: nothing stops other code from loading or storing it plainly, racing with this call; declare it as a typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer[T], …)", name)
				}
			}
			return true
		})
	}
	return nil
}

// joinTracked reports whether the go statement's completion is observable.
func joinTracked(info *types.Info, gs *ast.GoStmt) bool {
	for _, arg := range gs.Call.Args {
		if isContextValue(info, arg) {
			return true
		}
	}
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return closureSignals(info, lit)
	}
	return false
}

// closureSignals scans a goroutine body for any completion signal: a channel
// send, a close(), a Done/Add/Wait call on a group-like type, or a context
// value the goroutine observes.
func closureSignals(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if builtinName(info, n) == "close" {
				found = true
				break
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok && groupJoinMethod(sel.Sel.Name) && groupTyped(info, sel.X) {
				found = true
			}
		case *ast.Ident:
			if isContextValue(info, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// groupJoinMethod reports whether name is a WaitGroup-style join method.
func groupJoinMethod(name string) bool {
	return name == "Done" || name == "Add" || name == "Wait"
}

// groupTyped reports whether expr's type (through pointers) is a named type
// whose name contains "Group" — sync.WaitGroup, errgroup.Group.
func groupTyped(info *types.Info, expr ast.Expr) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && strings.Contains(named.Obj().Name(), "Group")
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || info == nil {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
