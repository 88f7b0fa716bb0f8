package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// chainModule writes a throwaway module in which package c reaches package a
// both directly and through package b, whose function returns an *a.T, and
// c's test reaches a through package d the same way.
func chainModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module chainmod\n\ngo 1.24\n",
		"a/a.go":      "package a\n\ntype T struct{ N int }\n\nfunc New() *T { return &T{} }\n",
		"b/b.go":      "package b\n\nimport \"chainmod/a\"\n\nfunc Get() *a.T { return a.New() }\n",
		"c/c.go":      "package c\n\nimport (\n\t\"chainmod/a\"\n\t\"chainmod/b\"\n)\n\nvar X *a.T = b.Get()\n",
		"c/c_test.go": "package c\n\nimport (\n\t\"testing\"\n\n\t\"chainmod/a\"\n\t\"chainmod/d\"\n)\n\nfunc TestY(t *testing.T) { var _ *a.T = d.Make() }\n",
		"d/d.go":      "package d\n\nimport \"chainmod/a\"\n\nfunc Make() *a.T { return a.New() }\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadTypeChecksEachPackageOnce loads two listed packages, a and c, where
// c also reaches a through the unlisted b (and, with tests, through the
// unlisted d). Each module-local package must be type-checked once, so the
// *a.T that b returns is the *a.T c declares; only the listed packages are
// returned.
func TestLoadTypeChecksEachPackageOnce(t *testing.T) {
	dir := chainModule(t)
	for _, tests := range []bool{false, true} {
		pkgs, err := Load(LoadConfig{Dir: dir, Patterns: []string{"./a", "./c"}, IncludeTests: tests})
		if err != nil {
			t.Fatalf("tests %v: %v", tests, err)
		}
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		if len(pkgs) != 2 || paths[0] != "chainmod/a" || paths[1] != "chainmod/c" {
			t.Fatalf("tests %v: loaded %q, want [chainmod/a chainmod/c]", tests, paths)
		}
		for _, imp := range pkgs[1].Pkg.Imports() {
			if imp.Path() == "chainmod/a" && imp != pkgs[0].Pkg {
				t.Errorf("tests %v: c imports a second chainmod/a", tests)
			}
		}
	}
}
