package experiments

import "testing"

// TestParsePolicy covers every policy name both command lines accept: the
// name each resolves to (smartflux resolves to no Decider — the pipeline's own
// session), and the names that must fail instead of being clamped or guessed.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string // the Decider's name; "" for nil; "error" for a rejection
	}{
		{"smartflux", ""},
		{"sync", "sync"},
		{"random", "random"},
		{"seq1", "seq1"},
		{"seq4", "seq4"},
		{"oracle", "oracle"},
		{"seq0", "error"},
		{"seq-4", "error"},
		{"seqx", "error"},
		{"seq", "error"},
		{"bogus", "error"},
	} {
		d, err := Policy(tc.name, 1)
		switch {
		case tc.want == "error":
			if err == nil {
				t.Errorf("Policy(%q) = %v, want an error", tc.name, d)
			}
		case err != nil:
			t.Errorf("Policy(%q): %v", tc.name, err)
		case tc.want == "":
			if d != nil {
				t.Errorf("Policy(%q) = %s, want nil", tc.name, d.Name())
			}
		case d == nil || d.Name() != tc.want:
			t.Errorf("Policy(%q) = %v, want %s", tc.name, d, tc.want)
		}
	}
}

// TestRecipe covers every workload name: each builds an instance whose
// workflow has the report step, and an unknown name fails.
func TestRecipe(t *testing.T) {
	for _, w := range []Workload{LRB, AQHI, FireRisk} {
		build, report, err := Recipe(w, 1, 0.1)
		if err != nil {
			t.Fatalf("Recipe(%s): %v", w, err)
		}
		wf, _, err := build()
		if err != nil {
			t.Fatalf("%s build: %v", w, err)
		}
		if _, err := wf.Step(report); err != nil {
			t.Errorf("%s has no report step %s: %v", w, report, err)
		}
	}
	if _, _, err := Recipe("bogus", 1, 0.1); err == nil {
		t.Error("unknown workload must fail")
	}
}
