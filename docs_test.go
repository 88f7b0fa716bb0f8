package smartflux_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDesignLines bounds DESIGN.md's non-blank lines. The document describes
// the system by layer, each mechanism once, as it is now; what it used to be
// belongs in CHANGES.md, so it has no reason to grow.
const maxDesignLines = 1200

var (
	// designRef matches a reference into DESIGN.md (or DESIGN): § and a
	// section number or range, a quoted heading title, or both. The bare
	// file name names no heading.
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?\s*(?:§\s*(\d+)(?:\s*[–-]\s*(\d+))?)?(?:,?\s+"([^"]{1,80})")?`)
	// repoPath matches a repository path a document names.
	repoPath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples|workloads)/[\w./-]*)`)
	// wrapped joins a line break, its indentation and a comment marker, so a
	// reference wrapped across lines reads as one.
	wrapped = regexp.MustCompile(`[ \t]*\n[ \t]*(?:(?://|##?)[ \t]*)?`)
	// fence matches a fenced code block, codeSpan an inline code span.
	fence    = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan = regexp.MustCompile("`[^`]+`")
	// qualified matches a package-qualified exported identifier, optionally
	// followed by a method or field name: pkg.Name or pkg.Type.Member.
	qualified = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// designHeadings parses DESIGN.md's "## N. Title" sections and the
// "### Title" headings beneath each.
func designHeadings(t *testing.T) map[string]map[string]bool {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sections := map[string]map[string]bool{}
	section := regexp.MustCompile(`^## (\d+)\. (.+)$`)
	var cur map[string]bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if m := section.FindStringSubmatch(line); m != nil {
			cur = map[string]bool{m[2]: true}
			sections[m[1]] = cur
		} else if title, ok := strings.CutPrefix(line, "### "); ok && cur != nil {
			cur[title] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sections
}

// referringFiles lists the files whose DESIGN.md references are checked:
// every Go file outside the frozen benchmark, and the documents that point
// into DESIGN.md. CHANGES.md is history and keeps the numbering of its day.
func referringFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", "Makefile"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDesignReferencesResolve checks that every DESIGN.md reference names a
// heading DESIGN.md has: a section number, and a title within that section
// (or anywhere, when no number is given).
func TestDesignReferencesResolve(t *testing.T) {
	sections := designHeadings(t)
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	for _, path := range referringFiles(t) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := wrapped.ReplaceAllString(string(b), " ")
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			num, to, title := m[1], m[2], m[3]
			if num == "" && title == "" {
				continue
			}
			for _, n := range []string{num, to} {
				if n != "" && sections[n] == nil {
					t.Errorf("%s: %q names no DESIGN.md section %s", path, m[0], n)
				}
			}
			if title == "" {
				continue
			}
			found := false
			for n, titles := range sections {
				if (num == "" || n == num) && titles[title] {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %q names no DESIGN.md heading %q", path, m[0], title)
			}
		}
	}
}

// TestDocumentedPathsExist checks that every repository path DESIGN.md and
// README.md name exists.
func TestDocumentedPathsExist(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range repoPath.FindAllStringSubmatch(string(b), -1) {
			path := strings.TrimRight(m[1], ".")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, path)
			}
		}
	}
}

// TestDesignLength holds DESIGN.md to maxDesignLines non-blank lines.
func TestDesignLength(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" {
			n++
		}
	}
	if n > maxDesignLines {
		t.Errorf("DESIGN.md has %d non-blank lines, more than %d", n, maxDesignLines)
	}
}

// moduleDecls parses every non-test Go file of the module's library packages
// and returns, per package name, its top-level names plus Type.Member for
// every method, struct field and interface method, and the target "pkg.Type" of every alias of
// another package's type, whose members are the target's.
func moduleDecls(t *testing.T) (decls map[string]map[string]bool, aliases map[string]string) {
	t.Helper()
	decls, aliases = map[string]map[string]bool{}, map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return nil
		}
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				} else if recv := receiverType(decl.Recv.List[0].Type); recv != "" {
					names[recv+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						if sel, ok := spec.Type.(*ast.SelectorExpr); ok && spec.Assign.IsValid() {
							if x, ok := sel.X.(*ast.Ident); ok {
								aliases[pkg+"."+spec.Name.Name] = x.Name + "." + sel.Sel.Name
							}
						}
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						if members != nil {
							for _, field := range members.List {
								for _, n := range field.Names {
									names[spec.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, aliases
}

// receiverType names a method receiver's type: T for T, *T, T[P] and *T[P].
func receiverType(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestDocumentedIdentifiersExist checks that every package-qualified
// identifier DESIGN.md and README.md name in inline code — pkg.Name or
// pkg.Type.Member, pkg a package of this module — is declared in a non-test
// file of that package. ROADMAP.md and CHANGES.md record history and may
// name what is gone.
func TestDocumentedIdentifiersExist(t *testing.T) {
	decls, aliases := moduleDecls(t)
	// declares reports whether pkg declares typ.member, through aliases.
	declares := func(pkg, typ, member string) bool {
		for {
			if decls[pkg][typ+"."+member] {
				return true
			}
			target, ok := aliases[pkg+"."+typ]
			if !ok {
				return false
			}
			pkg, typ, _ = strings.Cut(target, ".")
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(b), "")
		for _, span := range codeSpan.FindAllString(text, -1) {
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				names := decls[pkg]
				if names == nil {
					continue
				}
				if !names[name] {
					t.Errorf("%s names %s.%s, which package %s does not declare", doc, pkg, name, pkg)
				} else if member != "" && !declares(pkg, name, member) {
					t.Errorf("%s names %s.%s.%s, which package %s does not declare", doc, pkg, name, member, pkg)
				}
			}
		}
	}
}
