package analysis

// unused: a declared name that no program reads.
//
// Two halves, one reference set:
//   - exported: a function, method, type, variable or constant declared in
//     a non-test file of a package under the module's internal/ tree that
//     no non-test file of any analyzed package references. The module's
//     public API (the root package), its commands, examples and workloads
//     are referrers, never judged; unusedUnjudged names the internal
//     packages left out besides.
//   - unexported: a package-level func, type, var or const, or a method,
//     that no non-test file of its own package references. This half covers
//     every package.
//
// Identifiers in _test.go files never count as references, with or without
// -tests: a name only a test reads is dead code that the test keeps alive.
// References from unusedFrozenReferrers count only for their own names.
//
// A method is exempt when its receiver type, as a value or as a pointer,
// implements an interface the module uses that has a method of that name:
// an interface declared in the module, the type of any expression, field,
// parameter or result the module mentions, error, the two Unwrap forms
// errors.Is and errors.As look for, or one of unusedStdInterfaces, which a
// value meets through reflection or without the module ever naming them. A
// method of a generic type is kept only by a reference; a call through an
// instantiation counts for the generic declaration.
//
// The reference set is module-wide, so the analyzer is only as right as the
// load is whole: a partial package list reports names whose callers were
// not loaded, and the driver does not run it under Options.Only. A use
// inside a declaration's own body or type spec, or in a method's receiver,
// does not count for that declaration (a recursive or self-describing name
// is still dead). Nor does the value of a blank interface assertion,
// `var _ I = v`: it is there to be checked against I, which the assertion
// references, and no program reads it. Interface methods are not judged.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unused reports declared names that no non-test file references.
var Unused = &Analyzer{
	Name: "unused",
	Doc: "exported names under internal/ that no non-test file of the analyzed packages " +
		"references, and unexported names their own package never references outside tests",
	Run: runUnused,
}

// unusedUnjudged are the module-relative paths under internal/ whose
// exported names are not judged: internal/fault exists for the chaos suites,
// which are test files.
var unusedUnjudged = []string{"internal/fault"}

// unusedFrozenReferrers are the module-relative package paths whose
// references to another package's names do not count. bench/ is frozen and
// outside the lint gate, so a name only it calls carries a suppression that
// holds whether bench is loaded or not.
var unusedFrozenReferrers = []string{"bench"}

// unusedStdInterfaces are standard interfaces a method meets without the
// module naming them: fmt calls String through reflection, and io.Writer
// and sort.Interface are met by types handed on as any.
var unusedStdInterfaces = [][2]string{{"fmt", "Stringer"}, {"io", "Writer"}, {"sort", "Interface"}}

// moduleRel returns path with its first element removed: the module-relative
// path, for a module path of one element (smartflux, or the corpus's).
func moduleRel(path string) string {
	_, rest, _ := strings.Cut(path, "/")
	return rest
}

// unusedJudgesExports reports whether the exported half covers the package.
func unusedJudgesExports(path string) bool {
	rel := moduleRel(path)
	if !strings.HasPrefix(rel, "internal/") {
		return false
	}
	for _, p := range unusedUnjudged {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return false
		}
	}
	return true
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// unusedRefs is the run's module-wide view: every referenced object, and
// every interface a method may be reached through.
type unusedRefs struct {
	used   map[types.Object]bool
	ifaces []*types.Interface
}

// originOf maps an instantiated function or method to its generic
// declaration, so a call through an instantiation counts for it.
func originOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func buildUnusedRefs(pkgs []*Package) any {
	r := &unusedRefs{used: map[types.Object]bool{}}
	seen := map[types.Type]bool{}
	addIface := func(it *types.Interface) {
		if it.NumMethods() > 0 {
			r.ifaces = append(r.ifaces, it)
		}
	}
	var collect func(t types.Type)
	collect = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			collect(types.Unalias(t))
		case *types.Named:
			for i := range t.TypeArgs().Len() {
				collect(t.TypeArgs().At(i))
			}
			collect(t.Underlying())
		case *types.Interface:
			addIface(t)
		case *types.Pointer:
			collect(t.Elem())
		case *types.Slice:
			collect(t.Elem())
		case *types.Array:
			collect(t.Elem())
		case *types.Chan:
			collect(t.Elem())
		case *types.Map:
			collect(t.Key())
			collect(t.Elem())
		case *types.Signature:
			collect(t.Params())
			collect(t.Results())
		case *types.Tuple:
			for i := range t.Len() {
				collect(t.At(i).Type())
			}
		case *types.Struct:
			for i := range t.NumFields() {
				collect(t.Field(i).Type())
			}
		}
	}

	errType := types.Universe.Lookup("error").Type()
	collect(errType)
	// errors.Is and errors.As reach Unwrap through interfaces of their own.
	for _, result := range []types.Type{errType, types.NewSlice(errType)} {
		unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	}
	for _, std := range unusedStdInterfaces {
		if p := importedPackage(pkgs, std[0]); p != nil {
			collect(p.Scope().Lookup(std[1]).Type())
		}
	}

	for _, pkg := range pkgs {
		frozen := slices.Contains(unusedFrozenReferrers, moduleRel(pkg.Path))
		info := pkg.Info
		// walk records the references under n, or with uses false only the
		// types it mentions; self is the declaration n belongs to, whose own
		// uses do not count for it.
		walk := func(n ast.Node, self types.Object, uses bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if tv, ok := info.Types[e]; ok {
					collect(tv.Type)
				}
				id, ok := e.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := info.Defs[id]; obj != nil {
					collect(obj.Type())
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				collect(obj.Type())
				obj = originOf(obj)
				if uses && obj != self && (!frozen || obj.Pkg() == pkg.Pkg) {
					r.used[obj] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					self := info.Defs[d.Name]
					walk(d.Type, self, true)
					if d.Body != nil {
						walk(d.Body, self, true)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							walk(s, info.Defs[s.Name], true)
						case *ast.ValueSpec:
							if isInterfaceAssertion(info, s) {
								walk(s.Type, nil, true)
								for _, v := range s.Values {
									walk(v, nil, false)
								}
							} else {
								walk(s, nil, true)
							}
						default:
							walk(spec, nil, true)
						}
					}
				}
			}
		}
	}
	return r
}

// isInterfaceAssertion reports whether spec is a blank interface assertion:
// every name blank, and a declared type that is an interface.
func isInterfaceAssertion(info *types.Info, spec *ast.ValueSpec) bool {
	for _, id := range spec.Names {
		if id.Name != "_" {
			return false
		}
	}
	return spec.Type != nil && types.IsInterface(info.TypeOf(spec.Type))
}

// importedPackage finds the package with the given path among the analyzed
// packages' transitive imports, or nil.
func importedPackage(pkgs []*Package, path string) *types.Package {
	seen := map[*types.Package]bool{}
	var find func(ps []*types.Package) *types.Package
	find = func(ps []*types.Package) *types.Package {
		for _, p := range ps {
			if seen[p] {
				continue
			}
			seen[p] = true
			if p.Path() == path {
				return p
			}
			if found := find(p.Imports()); found != nil {
				return found
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		if found := find([]*types.Package{pkg.Pkg}); found != nil {
			return found
		}
	}
	return nil
}

// satisfies reports whether method m is reachable through an interface the
// module uses: its receiver type, or a pointer to it, implements one that
// has a method of m's name.
func (r *unusedRefs) satisfies(m *types.Func) bool {
	named := receiverNamed(m)
	if named == nil {
		return false
	}
	if named.TypeParams().Len() > 0 {
		return false // Implements is unspecified on a generic type
	}
	for _, it := range r.ifaces {
		if hasMethodNamed(it, m.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// receiverNamed returns the named type method m is declared on, or nil.
func receiverNamed(m *types.Func) *types.Named {
	recv := m.Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, _ := types.Unalias(recv).(*types.Named)
	return named
}

func hasMethodNamed(it *types.Interface, name string) bool {
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func runUnused(pass *Pass) {
	refs := pass.runState(buildUnusedRefs).(*unusedRefs)
	exports := unusedJudgesExports(pass.Path)
	check := func(id *ast.Ident) {
		obj := pass.Info.Defs[id]
		if obj == nil || id.Name == "_" || refs.used[obj] || (obj.Exported() && !exports) {
			return
		}
		kind, name := "", obj.Name()
		switch obj := obj.(type) {
		case *types.Func:
			kind = "func"
			if obj.Signature().Recv() != nil {
				if refs.satisfies(obj) {
					return
				}
				kind = "method"
				if named := receiverNamed(obj); named != nil {
					name = named.Obj().Name() + "." + name
				}
			} else if name == "init" || (name == "main" && pass.Pkg.Name() == "main") {
				return
			}
		case *types.TypeName:
			kind = "type"
		case *types.Const:
			kind = "const"
		case *types.Var:
			kind = "var"
		}
		pass.Reportf(id.Pos(), "%s %s is unused: no non-test file references it", kind, name)
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id)
						}
					}
				}
			}
		}
	}
}
