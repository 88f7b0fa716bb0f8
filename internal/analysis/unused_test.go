package analysis

import (
	"go/ast"
	"testing"
)

// TestUnusedCorpus runs unused through the driver over the corpus module's
// internal/lib, app and bench packages, with and without lib_test.go
// loaded, and holds its findings to the want comments: a name read only from
// another package, through a module interface or io.Writer, through a
// generic instantiation, or under a suppression is clean; one read only by
// a test or by bench is reported.
func TestUnusedCorpus(t *testing.T) {
	for _, tests := range []bool{false, true} {
		pkgs, err := Load(LoadConfig{Dir: testdataMod(t), Patterns: []string{"./internal/...", "./app", "./bench"}, IncludeTests: tests})
		if err != nil {
			t.Fatal(err)
		}
		report := analyze(pkgs, []*Analyzer{Unused})
		var files []*ast.File
		for _, p := range pkgs {
			files = append(files, p.Files...)
		}
		problems, err := checkWants(pkgs[0].Fset, files, report.Diagnostics)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Errorf("tests=%v: %s", tests, p)
		}
		if len(report.Suppressed) != 1 || report.Suppressed[0].Reason != "corpus: the suppressed case" {
			t.Errorf("tests=%v: want the one suppressed finding, got %+v", tests, report.Suppressed)
		}
	}
}

// TestUnusedSkippedUnderOnly: an -only load is not the whole module, so
// unused does not run, and its suppression is not judged stale.
func TestUnusedSkippedUnderOnly(t *testing.T) {
	report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./..."}, Analyzers: []*Analyzer{Unused}, Only: []string{"./internal/lib"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Diagnostics) != 0 || len(report.Suppressed) != 0 {
		t.Errorf("unused ran under Only: %v %v", report.Diagnostics, report.Suppressed)
	}
}
