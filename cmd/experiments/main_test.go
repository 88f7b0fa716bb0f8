package main

import (
	"os"
	"strings"
	"testing"

	"smartflux/internal/experiments"
)

// capture runs the CLI with stdout redirected to a pipe.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, w)
	w.Close()
	out := make([]byte, 1<<20)
	n, _ := r.Read(out)
	r.Close()
	return string(out[:n]), runErr
}

func TestRunFig3(t *testing.T) {
	out, err := capture(t, []string{"-fig", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 3") {
		t.Errorf("missing header:\n%s", out)
	}
}

func TestRunUnknownFig(t *testing.T) {
	if _, err := capture(t, []string{"-fig", "99"}); err == nil {
		t.Error("unknown figure must fail")
	}
}

func TestRunFigSelection(t *testing.T) {
	// Tiny scale keeps this a smoke test of flag plumbing and rendering.
	out, err := capture(t, []string{"-fig", "12", "-scale", "0.08", "-seed", "42"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 12") {
		t.Errorf("missing Figure 12 output:\n%s", out)
	}
}

// Figure 11 reads five policies per workload; -j can only fan them out if
// prewarmTargets names each, beside the SmartFlux runs of the other figures.
func TestPrewarmTargetsListFig11Policies(t *testing.T) {
	only := func(fig string) func(string) bool { return func(name string) bool { return name == fig } }
	targets := prewarmTargets(only("11"))
	if len(targets) != 2*len(experiments.Fig11Policies) {
		t.Fatalf("-fig 11 prewarms %d targets: %v", len(targets), targets)
	}
	seen := map[experiments.Target]bool{}
	for _, target := range targets {
		if target.Bound != 0.05 || seen[target] {
			t.Errorf("unexpected or repeated target %+v", target)
		}
		seen[target] = true
	}
	for _, target := range prewarmTargets(only("12")) {
		if target.Policy != experiments.SmartFlux {
			t.Errorf("-fig 12 prewarms %+v", target)
		}
	}
}
