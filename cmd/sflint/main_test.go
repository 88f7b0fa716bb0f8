package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mod points at the self-contained sflint testdata module.
func mod(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitZeroOnCleanPackage(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-C", mod(t), "./clean")
	if code != 0 {
		t.Fatalf("exit = %d on clean package\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if strings.Contains(stdout, "[") {
		t.Errorf("clean run printed diagnostics: %s", stdout)
	}
}

func TestExitOneOnDiagnostics(t *testing.T) {
	code, stdout, _ := runCLI(t, "-C", mod(t), "./dirty")
	if code != 1 {
		t.Fatalf("exit = %d on dirty package, want 1\nstdout: %s", code, stdout)
	}
	for _, want := range []string{"[detflow]", "[errdrop]", "[goroleak]", "dirty.go:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("human output missing %q:\n%s", want, stdout)
		}
	}
	// file:line:col prefix on every diagnostic line.
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if strings.HasPrefix(line, "sflint:") {
			continue
		}
		if !strings.Contains(line, ".go:") {
			t.Errorf("diagnostic line lacks file:line:col: %q", line)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-json", "-C", mod(t), "./dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var report struct {
		Version     int `json:"version"`
		Diagnostics []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		Suppressed []struct {
			Reason string `json:"reason"`
		} `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if report.Version != 1 {
		t.Errorf("schema version = %d, want 1", report.Version)
	}
	if len(report.Diagnostics) != 3 {
		t.Errorf("want 3 diagnostics, got %d", len(report.Diagnostics))
	}
	for _, d := range report.Diagnostics {
		if d.File == "" || d.Line == 0 || d.Col == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
	if len(report.Suppressed) != 1 || !strings.Contains(report.Suppressed[0].Reason, "proven elsewhere") {
		t.Errorf("suppressed finding missing its reason: %+v", report.Suppressed)
	}
}

func TestSuppressionsAudit(t *testing.T) {
	code, stdout, _ := runCLI(t, "-suppressions", "-C", mod(t), "./dirty")
	if code != 0 {
		t.Fatalf("audit exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "[detflow]") ||
		!strings.Contains(stdout, "order insensitivity proven elsewhere") ||
		!strings.Contains(stdout, "dirty.go:") {
		t.Errorf("audit output missing file:line, analyzer or reason:\n%s", stdout)
	}
	if !strings.Contains(stdout, "1 suppression(s) total") {
		t.Errorf("audit output missing total:\n%s", stdout)
	}
}

func TestEnableDisableFlags(t *testing.T) {
	code, stdout, _ := runCLI(t, "-enable", "goroleak", "-C", mod(t), "./dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(stdout, "[detflow]") || !strings.Contains(stdout, "[goroleak]") {
		t.Errorf("-enable goroleak ran the wrong analyzers:\n%s", stdout)
	}

	code, stdout, _ = runCLI(t, "-disable", "detflow,errdrop,goroleak", "-C", mod(t), "./dirty")
	if code != 0 {
		t.Fatalf("exit = %d with the firing analyzers disabled, want 0\n%s", code, stdout)
	}

	code, _, stderr := runCLI(t, "-enable", "nosuch", "-C", mod(t), "./dirty")
	if code != 2 || !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("unknown analyzer name: exit %d, stderr %q", code, stderr)
	}
}

func TestOnlyFlagImportPath(t *testing.T) {
	// The pattern set covers the whole module, but -only restricts analysis
	// to the flow package: dirty's findings must not appear.
	code, stdout, stderr := runCLI(t, "-C", mod(t), "-only", "sflintmod/flow", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if strings.Contains(stdout, "[detflow]") || strings.Contains(stdout, "dirty.go") {
		t.Errorf("-only sflintmod/flow leaked findings from other packages:\n%s", stdout)
	}
	if !strings.Contains(stdout, "[poolescape]") || !strings.Contains(stdout, "[release]") {
		t.Errorf("-only sflintmod/flow missing the flow package's findings:\n%s", stdout)
	}
}

func TestOnlyFlagDirPattern(t *testing.T) {
	code, stdout, _ := runCLI(t, "-C", mod(t), "-only", "./dirty", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "[detflow]") || strings.Contains(stdout, "flow.go") {
		t.Errorf("-only ./dirty analyzed the wrong packages:\n%s", stdout)
	}
}

func TestOnlyFlagNoMatchIsClean(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-C", mod(t), "-only", "sflintmod/nosuch", "./...")
	if code != 0 {
		t.Fatalf("exit = %d with no matching packages, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// gitDiffRepo builds a throwaway module under git: package a (untouched,
// carries a finding), package b (modified after the commit, carries a
// finding), and later an untracked package c.
func gitDiffRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	poolSrc := func(pkg string) string {
		return "package " + pkg + "\n\nimport \"sync\"\n\nvar p sync.Pool\n\n// Use returns a pooled value after recycling it.\nfunc Use() interface{} {\n\tv := p.Get()\n\tp.Put(v)\n\treturn v\n}\n"
	}
	files := map[string]string{
		"go.mod":   "module diffmod\n\ngo 1.24\n",
		"a/a.go":   poolSrc("a"),
		"b/b.go":   poolSrc("b"),
		"note.txt": "not a go file\n",
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
	for _, args := range [][]string{
		{"init", "-q"},
		{"add", "."},
		{"-c", "user.name=test", "-c", "user.email=test@test", "commit", "-q", "-m", "seed"},
	} {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	return dir
}

func TestDiffFlag(t *testing.T) {
	dir := gitDiffRepo(t)

	// Nothing changed since the commit: exit 0 without loading anything.
	code, stdout, stderr := runCLI(t, "-C", dir, "-diff", "HEAD", "./...")
	if code != 0 || !strings.Contains(stdout, "no Go packages changed") {
		t.Fatalf("clean tree: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	// Touch b and drop an untracked package c: both are analyzed, the
	// untouched (and equally guilty) package a is not.
	b := filepath.Join(dir, "b", "b.go")
	src, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "c"), 0o755); err != nil {
		t.Fatal(err)
	}
	cSrc := "package c\n\nimport \"sync\"\n\nvar p sync.Pool\n\nfunc Use() interface{} {\n\tv := p.Get()\n\tp.Put(v)\n\treturn v\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "c", "c.go"), []byte(cSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr = runCLI(t, "-C", dir, "-diff", "HEAD", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "b.go") || !strings.Contains(stdout, "c.go") {
		t.Errorf("-diff missed a changed or untracked package:\n%s", stdout)
	}
	if strings.Contains(stdout, "a.go") {
		t.Errorf("-diff analyzed the untouched package a:\n%s", stdout)
	}

	// A bad ref is a usage error, not a silent pass.
	code, _, stderr = runCLI(t, "-C", dir, "-diff", "nosuchref", "./...")
	if code != 2 || !strings.Contains(stderr, "git") {
		t.Errorf("bad ref: exit %d, stderr %q", code, stderr)
	}
}

func TestUsageDocumentsExitCodes(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 2 {
		t.Fatalf("-h exit = %d, want 2 (flag package convention)", code)
	}
	for _, want := range []string{"Exit status", "0  no diagnostics", "1  one or more diagnostics", "2  load", "-only", "-diff"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("usage output missing %q:\n%s", want, stderr)
		}
	}
}

func TestExitTwoOnLoadError(t *testing.T) {
	code, _, stderr := runCLI(t, "-C", mod(t), "./nosuchpackage")
	if code != 2 {
		t.Fatalf("exit = %d on load error, want 2 (stderr: %s)", code, stderr)
	}
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "errdrop goroleak poolescape release detflow unused"; got != want {
		t.Errorf("-list names %q, want %q in All() order:\n%s", got, want, stdout)
	}
}
