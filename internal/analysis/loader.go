package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir         string
	ImportPath  string
	Name        string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	Imports     []string
	TestImports []string
	// DepOnly marks a package listed only as a dependency of the named ones.
	DepOnly  bool
	Standard bool
}

// deps returns the import paths lp's type check needs: its imports, and with
// tests its test imports, which are loaded for analyzed packages only.
func (lp *listedPackage) deps(tests bool) []string {
	deps := slices.Clone(lp.Imports)
	if tests && !lp.DepOnly {
		deps = append(deps, lp.TestImports...)
	}
	return deps
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// LoadConfig configures package loading.
type LoadConfig struct {
	// Dir is the directory `go list` runs in (the module root, usually).
	Dir string
	// Patterns are go package patterns, e.g. "./...".
	Patterns []string
	// IncludeTests adds in-package _test.go files to the analyzed file set.
	// External (package foo_test) test files are never loaded.
	IncludeTests bool
	// Only, when non-empty, restricts the returned (analyzed) packages to
	// those matching at least one pattern. Module-local dependencies of a
	// matched package are still type-checked — import resolution needs them —
	// but are not returned, so they produce no diagnostics. A pattern matches
	// the import path exactly, as a "p/..." prefix, or as a path.Match glob;
	// patterns starting with "./" match the package directory relative to Dir
	// instead (same three forms).
	Only []string
}

// onlyMatch reports whether pattern matches target under the three supported
// forms: exact, "p/..." prefix, path.Match glob.
func onlyMatch(pattern, target string) bool {
	if pattern == target {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		if target == prefix || strings.HasPrefix(target, prefix+"/") {
			return true
		}
	}
	ok, err := path.Match(pattern, target)
	return err == nil && ok
}

// matchesOnly reports whether the listed package matches any Only pattern.
// relDir is the package directory relative to the load dir, slash-separated
// and "./"-prefixed (e.g. "./internal/kvstore").
func matchesOnly(patterns []string, importPath, relDir string) bool {
	for _, pat := range patterns {
		target := importPath
		if strings.HasPrefix(pat, "./") || pat == "." {
			target = relDir
		}
		if onlyMatch(pat, target) {
			return true
		}
	}
	return false
}

// goList discovers packages with `go list -deps -json`, the only piece of
// package loading not done in-process; everything downstream is
// go/parser+go/types. It returns the packages matching patterns and every
// module-local package they depend on, marked DepOnly, so each is
// type-checked once, by this loader: a local package left to the source
// importer would be built a second time, and its types would differ from
// the loader's own. Standard-library packages are left out.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if !p.Standard {
			pkgs = append(pkgs, &p)
		}
	}
	return pkgs, nil
}

// chainImporter resolves module-local imports from the packages this loader
// has already type-checked (they are loaded in dependency order) and falls
// back to the stdlib source importer for everything else.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load discovers, parses and type-checks the packages matching cfg, and
// the module-local packages they depend on, each once. Only the matching
// packages are returned, in deterministic dependency order.
func Load(cfg LoadConfig) ([]*Package, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(cfg.Dir, patterns)
	if err != nil {
		return nil, err
	}

	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}
	if cfg.IncludeTests {
		// -deps follows imports, not test imports: list what the analyzed
		// packages' tests import besides, as dependencies.
		var missing []string
		for _, lp := range listed {
			for _, imp := range lp.deps(true) {
				if byPath[imp] == nil {
					missing = append(missing, imp)
				}
			}
		}
		if len(missing) > 0 {
			slices.Sort(missing)
			more, err := goList(cfg.Dir, slices.Compact(missing))
			if err != nil {
				return nil, err
			}
			for _, lp := range more {
				if byPath[lp.ImportPath] == nil {
					lp.DepOnly = true
					byPath[lp.ImportPath] = lp
				}
			}
		}
	}

	// Topologically order the module-local package graph so every local
	// import is type-checked before its importers. Neighbors are visited in
	// sorted order, keeping the whole load deterministic.
	var order []*listedPackage
	state := make(map[string]int, len(listed)) // 0 unvisited, 1 visiting, 2 done
	var visit func(lp *listedPackage) error
	visit = func(lp *listedPackage) error {
		switch state[lp.ImportPath] {
		case 1:
			return fmt.Errorf("import cycle through %s", lp.ImportPath)
		case 2:
			return nil
		}
		state[lp.ImportPath] = 1
		deps := lp.deps(cfg.IncludeTests)
		sort.Strings(deps)
		for _, imp := range deps {
			if imp == lp.ImportPath {
				continue // in-package tests list their own package
			}
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[lp.ImportPath] = 2
		order = append(order, lp)
		return nil
	}
	paths := make([]string, 0, len(listed))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(byPath[p]); err != nil {
			return nil, err
		}
	}

	// Analysis is restricted to the listed packages (and, with Only
	// patterns, to the matched ones among them), but their module-local
	// dependency closure must still be type-checked so the chain importer
	// can resolve local imports. Everything else is skipped entirely — that
	// skip is what makes -only/-diff runs fast.
	absDir, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool)
	needed := make(map[string]bool)
	var need func(lp *listedPackage)
	need = func(lp *listedPackage) {
		if needed[lp.ImportPath] {
			return
		}
		needed[lp.ImportPath] = true
		for _, imp := range lp.deps(cfg.IncludeTests) {
			if dep, ok := byPath[imp]; ok && imp != lp.ImportPath {
				need(dep)
			}
		}
	}
	for _, lp := range order {
		if lp.DepOnly {
			continue
		}
		if len(cfg.Only) > 0 {
			rel, err := filepath.Rel(absDir, lp.Dir)
			if err != nil {
				continue
			}
			relDir := "./" + filepath.ToSlash(rel)
			if rel == "." {
				relDir = "."
			}
			if !matchesOnly(cfg.Only, lp.ImportPath, relDir) {
				continue
			}
		}
		matched[lp.ImportPath] = true
		need(lp)
	}

	// The source importer compiles stdlib dependencies from GOROOT source;
	// with cgo disabled it takes the pure-Go paths everywhere, which is all
	// type checking needs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := &chainImporter{
		local:    make(map[string]*types.Package, len(order)),
		fallback: importer.ForCompiler(fset, "source", nil),
	}

	var out []*Package
	for _, lp := range order {
		if !needed[lp.ImportPath] {
			continue
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		names := slices.Clone(lp.GoFiles)
		if cfg.IncludeTests && !lp.DepOnly {
			names = append(names, lp.TestGoFiles...)
		}
		if len(names) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
		}
		imp.local[lp.ImportPath] = tpkg
		if !matched[lp.ImportPath] {
			continue // type-checked as a dependency only
		}
		out = append(out, &Package{
			Path:  lp.ImportPath,
			Dir:   lp.Dir,
			Fset:  fset,
			Files: files,
			Pkg:   tpkg,
			Info:  info,
		})
	}
	return out, nil
}
