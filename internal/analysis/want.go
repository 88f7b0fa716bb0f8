package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the self-hosted annotation test harness: testdata packages
// carry `// want "regexp"` comments on the lines where an analyzer must
// report, and WantErrors verifies the analyzer's actual diagnostics against
// them — every want must be matched by a diagnostic on its line, and every
// diagnostic must be claimed by a want. Clean (negative) cases are verified
// by the same mechanism: code with no want comment must produce nothing.
//
// Testdata is laid out GOPATH-style under a src root
// (testdata/src/<import/path>/*.go) so corpora can simulate real import
// paths — e.g. a fake smartflux/internal/kvstore for errdrop, or packages
// under smartflux/internal/engine for detflow's path scoping.

// wantRE extracts the quoted regexps from a want comment; both Go string
// forms are accepted: // want "a" `b`
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// testdataImporter resolves imports from the testdata src root first and
// falls back to the stdlib source importer.
type testdataImporter struct {
	srcRoot  string
	fset     *token.FileSet
	cache    map[string]*types.Package
	infos    map[string]*loadedTestPackage
	fallback types.Importer
}

// loadedTestPackage keeps the syntax and type info of a testdata package.
type loadedTestPackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newTestdataImporter(srcRoot string, fset *token.FileSet) *testdataImporter {
	build.Default.CgoEnabled = false
	return &testdataImporter{
		srcRoot:  srcRoot,
		fset:     fset,
		cache:    map[string]*types.Package{},
		infos:    map[string]*loadedTestPackage{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
}

func (ti *testdataImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ti.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ti.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		lp, err := ti.load(path, dir)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return ti.fallback.Import(path)
}

func (ti *testdataImporter) load(path, dir string) (*loadedTestPackage, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ti.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: ti}
	tpkg, err := conf.Check(path, ti.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck testdata %s: %v", path, err)
	}
	lp := &loadedTestPackage{path: path, files: files, pkg: tpkg, info: info}
	ti.cache[path] = tpkg
	ti.infos[path] = lp
	return lp, nil
}

// WantErrors runs the analyzer over the testdata package at
// srcRoot/<path> and returns one message per mismatch between the
// diagnostics produced and the `// want` annotations present. An empty
// result means the corpus is verified: all positives reported, all
// negatives clean.
func WantErrors(srcRoot, path string, a *Analyzer) ([]string, error) {
	fset := token.NewFileSet()
	ti := newTestdataImporter(srcRoot, fset)
	dir := filepath.Join(srcRoot, filepath.FromSlash(path))
	lp, err := ti.load(path, dir)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Path:     path,
		Fset:     fset,
		Files:    lp.files,
		Pkg:      lp.pkg,
		Info:     lp.info,
		report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	a.Run(pass)
	sortDiagnostics(diags)

	type want struct {
		re      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := map[string]map[int][]*want{} // file -> line -> wants
	for _, f := range lp.files {
		fname := fset.Position(f.Pos()).Filename
		wants[fname] = map[int][]*want{}
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					var unq string
					if m[1] != "" || strings.HasPrefix(m[0], `"`) {
						var err error
						unq, err = strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want string %q: %v", fname, line, m[0], err)
						}
					} else {
						unq = m[2]
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", fname, line, unq, err)
					}
					wants[fname][line] = append(wants[fname][line], &want{re: re, raw: unq})
				}
			}
		}
	}

	var problems []string
	for _, d := range diags {
		claimed := false
		for _, w := range wants[d.Position.Filename][d.Position.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	var files []string
	for fname := range wants {
		files = append(files, fname)
	}
	sort.Strings(files)
	for _, fname := range files {
		var lines []int
		for line := range wants[fname] {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, w := range wants[fname][line] {
				if !w.matched {
					problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matching %q", fname, line, w.raw))
				}
			}
		}
	}
	return problems, nil
}
