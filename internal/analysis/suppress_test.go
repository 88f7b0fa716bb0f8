package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// suppressionsFromSrc parses src and extracts its directives, returning the
// suppressions plus any malformed-directive diagnostics.
func suppressionsFromSrc(t *testing.T, src string) ([]Suppression, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "supp.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var diags []Diagnostic
	supps := fileSuppressions(fset, f, All(), func(d Diagnostic) { diags = append(diags, d) })
	return supps, diags
}

// TestSuppressionWrongLineDoesNotCover pins the two-line coverage window: a
// directive silences its own line and the line directly below, never a
// diagnostic two or more lines away. A comment stranded above a blank line
// (or pushed up by an edit) must stop suppressing rather than silently
// covering whatever drifted into range.
func TestSuppressionWrongLineDoesNotCover(t *testing.T) {
	src := `package p

//sflint:ignore detflow order proven stable

func f() {} // the directive is two lines up: not covered
`
	supps, diags := suppressionsFromSrc(t, src)
	if len(diags) != 0 {
		t.Fatalf("well-formed directive reported as malformed: %v", diags)
	}
	if len(supps) != 1 {
		t.Fatalf("want 1 suppression, got %d", len(supps))
	}
	s := supps[0]
	if !s.covers("detflow", s.Position.Line) || !s.covers("detflow", s.Position.Line+1) {
		t.Errorf("suppression does not cover its own line and the next")
	}
	if s.covers("detflow", s.Position.Line+2) {
		t.Errorf("suppression covers a diagnostic two lines below the directive")
	}
	if s.covers("detflow", s.Position.Line-1) {
		t.Errorf("suppression covers the line above the directive")
	}
}

// TestSuppressionMissingReason pins the mandatory-justification rule: an
// ignore without a reason is itself a diagnostic and suppresses nothing.
func TestSuppressionMissingReason(t *testing.T) {
	src := `package p

//sflint:ignore detflow
func f() {}
`
	supps, diags := suppressionsFromSrc(t, src)
	if len(supps) != 0 {
		t.Fatalf("reason-less directive produced a live suppression: %+v", supps)
	}
	if len(diags) != 1 || diags[0].Analyzer != "sflint" || !strings.Contains(diags[0].Message, "missing reason") {
		t.Fatalf("want one sflint missing-reason diagnostic, got %v", diags)
	}
}

// TestSuppressionBareDirective covers the degenerate form with no analyzer
// name at all.
func TestSuppressionBareDirective(t *testing.T) {
	src := `package p

//sflint:ignore
func f() {}
`
	supps, diags := suppressionsFromSrc(t, src)
	if len(supps) != 0 {
		t.Fatalf("bare directive produced a live suppression: %+v", supps)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "missing analyzer name and reason") {
		t.Fatalf("want one missing-analyzer diagnostic, got %v", diags)
	}
}

// TestSuppressionUnknownAnalyzerInList pins that one bad name poisons the
// whole directive: detflow,nosuch suppresses neither analyzer.
func TestSuppressionUnknownAnalyzerInList(t *testing.T) {
	src := `package p

//sflint:ignore detflow,nosuch half-valid lists must not half-apply
func f() {}
`
	supps, diags := suppressionsFromSrc(t, src)
	if len(supps) != 0 {
		t.Fatalf("directive with an unknown analyzer produced a live suppression: %+v", supps)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown analyzer nosuch") {
		t.Fatalf("want one unknown-analyzer diagnostic, got %v", diags)
	}
}

// TestSuppressionMultiAnalyzerOneLine pins the comma-list form: one directive
// covering two analyzers on the same line, and only those two.
func TestSuppressionMultiAnalyzerOneLine(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //sflint:ignore detflow,errdrop both proven benign here
}
`
	supps, diags := suppressionsFromSrc(t, src)
	if len(diags) != 0 {
		t.Fatalf("multi-analyzer directive reported as malformed: %v", diags)
	}
	if len(supps) != 1 {
		t.Fatalf("want 1 suppression, got %d", len(supps))
	}
	s := supps[0]
	if len(s.Analyzers) != 2 || s.Analyzers[0] != "detflow" || s.Analyzers[1] != "errdrop" {
		t.Errorf("analyzers = %v, want [detflow errdrop]", s.Analyzers)
	}
	if s.Reason != "both proven benign here" {
		t.Errorf("reason = %q", s.Reason)
	}
	for _, a := range []string{"detflow", "errdrop"} {
		if !s.covers(a, s.Position.Line) {
			t.Errorf("directive does not cover %s on its own line", a)
		}
	}
	if s.covers("release", s.Position.Line) {
		t.Errorf("directive covers an analyzer it does not name")
	}
}

// staleModule writes a throwaway module: package a carries one live errdrop
// finding under a used directive and one directive that covers nothing;
// package b carries only a directive that covers nothing.
func staleModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module stalemod\n\ngo 1.24\n",
		"a/a.go": "package a\n\ntype closer struct{}\n\nfunc (closer) Close() error { return nil }\n\n" +
			"func Used(c closer) {\n\t" + suppressPrefix + " errdrop the close error is reported elsewhere\n\tc.Close()\n}\n\n" +
			"func Stale() int {\n\t" + suppressPrefix + " errdrop,goroleak nothing here drops an error\n\treturn 1\n}\n",
		"b/b.go": "package b\n\n" + suppressPrefix + " detflow nothing here is ordered\nvar X = 1\n",
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

// staleFindings runs the driver over the stale module and returns the
// stale-suppression findings as "file:line" strings.
func staleFindings(t *testing.T, opts Options) []string {
	t.Helper()
	report, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range report.Diagnostics {
		if d.Analyzer == "sflint" && strings.Contains(d.Message, "stale suppression") {
			out = append(out, fmt.Sprintf("%s:%d", filepath.Base(d.Position.Filename), d.Position.Line))
		}
	}
	return out
}

// TestStaleSuppressionIsAFinding pins that a directive covering no finding
// is reported once every analyzer it names has run on its package, while a
// directive that suppressed something is not.
func TestStaleSuppressionIsAFinding(t *testing.T) {
	dir := staleModule(t)
	got := staleFindings(t, Options{Dir: dir})
	if want := []string{"a.go:13", "b.go:3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stale findings = %v, want %v", got, want)
	}
}

// TestStaleSuppressionNotJudgedWhenAnalyzerSkipped pins the -enable rule: a
// directive naming an analyzer that did not run is not judged, so only the
// directive whose every analyzer ran is reported.
func TestStaleSuppressionNotJudgedWhenAnalyzerSkipped(t *testing.T) {
	dir := staleModule(t)
	got := staleFindings(t, Options{Dir: dir, Analyzers: []*Analyzer{Errdrop, Detflow}})
	if want := []string{"b.go:3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stale findings with goroleak disabled = %v, want %v", got, want)
	}
}

// TestStaleSuppressionNotJudgedOutsideOnly pins the -only rule: a package
// left out of the analysis has its directives left alone.
func TestStaleSuppressionNotJudgedOutsideOnly(t *testing.T) {
	dir := staleModule(t)
	got := staleFindings(t, Options{Dir: dir, Only: []string{"./a"}})
	if want := []string{"a.go:13"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stale findings with -only ./a = %v, want %v", got, want)
	}
}
