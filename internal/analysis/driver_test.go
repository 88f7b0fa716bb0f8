package analysis

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// testdataMod is the self-contained module the driver runs `go list` in.
func testdataMod(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestDriverCleanPackage(t *testing.T) {
	report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./clean"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Diagnostics) != 0 {
		t.Fatalf("clean package produced diagnostics: %v", report.Diagnostics)
	}
	if len(report.Suppressed) != 0 || len(report.Suppressions) != 0 {
		t.Fatalf("clean package has suppressions: %+v", report)
	}
}

func TestDriverDirtyPackage(t *testing.T) {
	report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./dirty"}})
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range report.Diagnostics {
		byAnalyzer[d.Analyzer]++
		if filepath.Base(d.Position.Filename) != "dirty.go" || d.Position.Line == 0 || d.Position.Column == 0 {
			t.Errorf("diagnostic missing file:line:col: %s", d)
		}
	}
	want := map[string]int{"detflow": 1, "errdrop": 1, "goroleak": 1}
	for a, n := range want {
		if byAnalyzer[a] != n {
			t.Errorf("want %d %s diagnostics, got %d (all: %v)", n, a, byAnalyzer[a], report.Diagnostics)
		}
	}
	if len(report.Diagnostics) != 3 {
		t.Errorf("want exactly 3 live diagnostics, got %d: %v", len(report.Diagnostics), report.Diagnostics)
	}
}

func TestDriverSuppressionHonored(t *testing.T) {
	report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./dirty"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range report.Diagnostics {
		if strings.Contains(d.Message, "value sum") && d.Position.Line > 20 {
			t.Errorf("suppressed diagnostic leaked into live set: %s", d)
		}
	}
	if len(report.Suppressed) != 1 {
		t.Fatalf("want 1 suppressed diagnostic, got %d: %+v", len(report.Suppressed), report.Suppressed)
	}
	s := report.Suppressed[0]
	if s.Analyzer != "detflow" || !strings.Contains(s.Reason, "order insensitivity proven elsewhere") {
		t.Errorf("suppressed diagnostic lost its analyzer or reason: %+v", s)
	}
	if len(report.Suppressions) != 1 {
		t.Fatalf("want 1 suppression in the audit, got %d", len(report.Suppressions))
	}
	audit := report.Suppressions[0]
	if audit.Position.Line == 0 || len(audit.Analyzers) != 1 || audit.Analyzers[0] != "detflow" {
		t.Errorf("audit entry malformed: %+v", audit)
	}
}

func TestDriverAnalyzerSubset(t *testing.T) {
	report, err := Run(Options{
		Dir:       testdataMod(t),
		Patterns:  []string{"./dirty"},
		Analyzers: []*Analyzer{Errdrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range report.Diagnostics {
		if d.Analyzer != "errdrop" {
			t.Errorf("disabled analyzer still ran: %s", d)
		}
	}
	if len(report.Diagnostics) != 1 {
		t.Errorf("want 1 errdrop diagnostic, got %v", report.Diagnostics)
	}
}

// TestJSONSchemaStable locks the machine-readable schema CI consumes:
// top-level keys, per-diagnostic keys and their types must not drift.
func TestJSONSchemaStable(t *testing.T) {
	report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	for _, key := range []string{"version", "diagnostics", "suppressed", "suppressions"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("schema missing top-level key %q", key)
		}
	}
	if len(decoded) != 4 {
		t.Errorf("schema grew or shrank: keys now %d, want 4", len(decoded))
	}
	var version int
	if err := json.Unmarshal(decoded["version"], &version); err != nil || version != 1 {
		t.Errorf("schema version = %d (%v), want 1", version, err)
	}
	var diags []map[string]any
	if err := json.Unmarshal(decoded["diagnostics"], &diags); err != nil {
		t.Fatalf("diagnostics not an array of objects: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("dirty testdata module should produce diagnostics")
	}
	for _, d := range diags {
		for _, key := range []string{"file", "line", "col", "analyzer", "message"} {
			if _, ok := d[key]; !ok {
				t.Errorf("diagnostic missing key %q: %v", key, d)
			}
		}
	}
	var supps []map[string]any
	if err := json.Unmarshal(decoded["suppressions"], &supps); err != nil {
		t.Fatalf("suppressions not an array of objects: %v", err)
	}
	for _, s := range supps {
		for _, key := range []string{"file", "line", "analyzers", "reason"} {
			if _, ok := s[key]; !ok {
				t.Errorf("suppression missing key %q: %v", key, s)
			}
		}
	}
}

// TestDriverDeterministicOutput runs the driver twice and requires
// identical reports — the linter itself must honor the contract it
// enforces.
func TestDriverDeterministicOutput(t *testing.T) {
	run := func() string {
		report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./..."}})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs produced different reports:\n%s\n---\n%s", a, b)
	}
}

func TestMalformedSuppressionIsReported(t *testing.T) {
	report, err := Run(Options{Dir: testdataMod(t), Patterns: []string{"./badsupp"}})
	if err != nil {
		t.Fatal(err)
	}
	var sawMissingReason, sawUnknown bool
	for _, d := range report.Diagnostics {
		if d.Analyzer != "sflint" {
			continue
		}
		if strings.Contains(d.Message, "missing reason") {
			sawMissingReason = true
		}
		if strings.Contains(d.Message, "unknown analyzer") {
			sawUnknown = true
		}
	}
	if !sawMissingReason || !sawUnknown {
		t.Errorf("malformed suppressions not reported: %v", report.Diagnostics)
	}
}
