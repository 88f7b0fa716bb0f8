package analysis

import (
	"go/ast"
	"go/types"
)

// Goroleak flags `go func(...) {...}(...)` statements whose body has no
// escape hatch at all: no channel operation (send, receive, close, select,
// range over a channel), no sync.WaitGroup Done/Wait, and no
// context.Context in sight. Such a goroutine can neither be waited for nor
// cancelled — it either leaks or races the process exit; every background
// goroutine must be joinable.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc: "go func literals with no done-channel, WaitGroup or context escape " +
		"hatch; the goroutine cannot be joined or cancelled",
	Run: runGoroleak,
}

func runGoroleak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true // `go method()` spawns named code reviewed on its own
			}
			if !hasEscapeHatch(pass, lit) {
				pass.Reportf(gs.Pos(), "goroutine literal has no completion signal (done channel, "+
					"sync.WaitGroup or context.Context); it cannot be joined or cancelled and can leak")
			}
			return true
		})
	}
}

// hasEscapeHatch scans the literal's body (including nested literals — a
// deferred closure signalling done still counts) for any joinability or
// cancellation mechanism.
func hasEscapeHatch(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil && isChan(t) {
				found = true
			}
		case *ast.CallExpr:
			// close(ch) publishes completion.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if fn := staticCallee(pass.Info, n); fn != nil && fn.Pkg() != nil {
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil && fn.Pkg().Path() == "sync" &&
					(fn.Name() == "Done" || fn.Name() == "Wait") {
					found = true
				}
			}
		case *ast.Ident:
			// Any value of type context.Context in the body (parameter or
			// capture) means the goroutine can observe cancellation.
			if t := pass.Info.TypeOf(n); t != nil && isContext(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
