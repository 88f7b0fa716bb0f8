package analysis

import (
	"strings"
	"testing"
)

// TestWantHarnessCatchesBothDirections proves the harness is load-bearing:
// it must flag a diagnostic with no annotation AND an annotation with no
// diagnostic. If either direction went quiet, every corpus test would
// vacuously pass.
func TestWantHarnessCatchesBothDirections(t *testing.T) {
	problems, err := WantErrors(testdataSrc(t), "wantself", Detflow)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("want exactly 2 harness problems, got %d: %v", len(problems), problems)
	}
	var sawUnexpected, sawUnmatched bool
	for _, p := range problems {
		if strings.Contains(p, "unexpected diagnostic") {
			sawUnexpected = true
		}
		if strings.Contains(p, "no diagnostic matching") {
			sawUnmatched = true
		}
	}
	if !sawUnexpected || !sawUnmatched {
		t.Fatalf("harness missed a direction: %v", problems)
	}
}

// TestWantHarnessQuotedForm verifies double-quoted want strings parse the
// same as backticked ones (both corpus styles are valid Go escapes).
func TestWantHarnessQuotedForm(t *testing.T) {
	problems, err := WantErrors(testdataSrc(t), "wantquoted", Detflow)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("quoted-form corpus should verify cleanly, got: %v", problems)
	}
}
