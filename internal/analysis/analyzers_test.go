package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// testdataSrc is the GOPATH-style root of the annotated corpora.
func testdataSrc(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func runWant(t *testing.T, path string, a *Analyzer) {
	t.Helper()
	problems, err := WantErrors(testdataSrc(t), path, a)
	if err != nil {
		t.Fatalf("want harness on %s: %v", path, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// The maporder corpus is detflow's regression test for its map-order
// source and its output-write and return-value sinks.
func TestMaporderCorpus(t *testing.T) {
	runWant(t, "maporder", Detflow)
}

func TestNondetermCorpus(t *testing.T) {
	// The nondeterm corpus under detflow: positives live under the scoped
	// fake path smartflux/internal/engine, and each helper's wall-clock or
	// global-rand result is reported where a same-package caller stores it.
	runWant(t, "smartflux/internal/engine/ndcorpus", Detflow)
}

func TestNondetermAllowlistedObsIsClean(t *testing.T) {
	// The obs subtree is allowlisted: wall-clock reads there are by design.
	runWant(t, "smartflux/internal/obs/timing", Detflow)
}

func TestNondetermUnscopedIsClean(t *testing.T) {
	// The same calls outside the determinism scope produce nothing.
	runWant(t, "unscoped", Detflow)
}

// The locks corpus is release's regression test for lock obligations and
// blocking operations under a held mutex.
func TestLocksCorpus(t *testing.T) {
	runWant(t, "locks", Release)
}

func TestErrdropCorpus(t *testing.T) {
	runWant(t, "errdrop", Errdrop)
}

func TestGoroleakCorpus(t *testing.T) {
	runWant(t, "goroleak", Goroleak)
}

// The spanleak corpus is release's regression test for span obligations.
func TestSpanleakCorpus(t *testing.T) {
	runWant(t, "spanleak", Release)
}

func TestPoolescapeCorpus(t *testing.T) {
	runWant(t, "poolescape", Poolescape)
}

func TestCtxflowCorpus(t *testing.T) {
	runWant(t, "ctxflow", Release)
}

func TestDetflowCorpus(t *testing.T) {
	// Positives live under the scoped fake path smartflux/internal/engine.
	runWant(t, "smartflux/internal/engine/dfcorpus", Detflow)
}

func TestDetflowUnscopedIsClean(t *testing.T) {
	// The same sources outside the determinism scope produce nothing; the
	// unscoped corpus reads wall clocks and global rand freely.
	runWant(t, "unscoped", Detflow)
}

func TestDetflowAllowlistedObsIsClean(t *testing.T) {
	runWant(t, "smartflux/internal/obs/timing", Detflow)
}

func TestSpanleakObsPackageExempt(t *testing.T) {
	// The obs implementation package itself must never be flagged, even
	// though its constructors hand out spans nobody in-package ends.
	runWant(t, "smartflux/internal/obs", Release)
}

// TestScanFloatsRegressionLock pins the exact pre-PR-2 bug class to a
// diagnostic: a float summed over a ScanFloats-style map snapshot and
// returned must be reported by detflow. If the corpus or analyzer drifts so
// that this pattern goes quiet, this test fails independently of the want
// harness.
func TestScanFloatsRegressionLock(t *testing.T) {
	fset, lp := loadCorpusPackage(t, "maporder")
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: Detflow,
		Path:     "maporder",
		Fset:     fset,
		Files:    lp.files,
		Pkg:      lp.pkg,
		Info:     lp.info,
		report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	Detflow.Run(pass)
	for _, d := range diags {
		if filepath.Base(d.Position.Filename) == "maporder.go" &&
			d.Analyzer == "detflow" && containsAll(d.Message, "return value sum", "map-order") {
			return
		}
	}
	t.Fatalf("ScanFloats float-accumulation pattern produced no detflow diagnostic; got %v", diags)
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func loadCorpusPackage(t *testing.T, path string) (fset *token.FileSet, lp *loadedTestPackage) {
	t.Helper()
	fset = token.NewFileSet()
	ti := newTestdataImporter(testdataSrc(t), fset)
	lp, err := ti.load(path, filepath.Join(testdataSrc(t), filepath.FromSlash(path)))
	if err != nil {
		t.Fatal(err)
	}
	return fset, lp
}
