// Package analysis is SmartFlux's from-scratch static-analysis subsystem:
// a stdlib-only analyzer driver (go/parser + go/ast + go/types, packages
// discovered with `go list -json` and type-checked through the source
// importer) plus a suite of project-specific analyzers that mechanically
// enforce the repo's determinism and concurrency contracts.
//
// The contract being guarded is the one PR 2 established: parallelism (and
// any other incidental ordering, such as map iteration) may change
// wall-clock time, never a number. The paper's headline claim — skipped
// executions stay under maxε with >95% confidence — is a statistical
// statement, reproducible only if every hot path is a deterministic
// function of its inputs. Silent nondeterminism is therefore the most
// dangerous bug class in this tree, and these analyzers exist so it is
// caught by a tool on every commit instead of by reviewers.
//
// Diagnostics can be suppressed, with a mandatory justification, by a
//
//	//sflint:ignore <analyzer>[,<analyzer>] <reason>
//
// comment on the offending line or on the line directly above it. Every
// suppression is auditable via `sflint -suppressions`, and one that covers
// no finding is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check. Run inspects a type-checked package and
// reports diagnostics through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable/disable flags and
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass)
}

// A Pass carries one (analyzer, package) pairing: the syntax, the type
// information and the report sink.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (e.g. "smartflux/internal/engine").
	Path string
	Fset *token.FileSet
	// Files holds the parsed files under analysis.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: which analyzer, where, and why.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the canonical human form: file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Errdrop, Goroleak, Poolescape, Release, Detflow}
}

// ByName resolves a comma-separated analyzer name list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// --- shared AST/type helpers used by the analyzers ---

// staticCallee resolves the *types.Func a call statically invokes (package
// functions, methods, and interface methods). It returns nil for calls
// through function-typed variables, builtins and type conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isFloat reports whether t's underlying type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isChan reports whether t's underlying type is a channel.
func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// identObject returns the object an identifier or selector expression
// resolves to, or nil.
func identObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// mentionsObject reports whether obj is referenced anywhere inside e.
func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// funcBodies yields every function body in the file — declarations and
// literals. Each body is yielded exactly once; callers that must not
// double-count nested literals should skip *ast.FuncLit nodes while walking
// a body.
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Body)
			}
		case *ast.FuncLit:
			visit(fn.Body)
		}
		return true
	})
}

// exprString renders a (small) expression as source text, for messages and
// for matching mutex receivers.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
