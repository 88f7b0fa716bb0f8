// Command sflint runs SmartFlux's project-specific static analyzers over
// the given package patterns and reports every violation of the repo's
// determinism and concurrency contracts.
//
// Usage:
//
//	sflint [flags] [packages]
//
//	sflint ./...                     # run the full suite
//	sflint -json ./... > report.json # machine-readable report (schema v1)
//	sflint -suppressions ./...       # audit every //sflint:ignore in the tree
//	sflint -disable release ./...    # drop an analyzer
//	sflint -enable detflow ./...     # run only the named analyzers
//	sflint -only ./internal/... ./...# analyze only matching packages
//	sflint -diff origin/main ./...   # analyze only packages changed vs a ref
//	sflint -list                     # describe the suite
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on a
// load/typecheck/usage error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"smartflux/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit the report as JSON (schema version 1)")
		listOnly = fs.Bool("list", false, "list the analyzers and exit")
		audit    = fs.Bool("suppressions", false, "list every //sflint:ignore directive instead of diagnostics")
		tests    = fs.Bool("tests", false, "also analyze in-package _test.go files")
		enable   = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable  = fs.String("disable", "", "comma-separated analyzers to skip")
		chdir    = fs.String("C", "", "resolve package patterns in this directory")
		only     = fs.String("only", "", "comma-separated package patterns; analyze only matching packages\n(import path or ./dir form; exact, p/... prefix, or glob)")
		diffRef  = fs.String("diff", "", "analyze only packages with .go files changed vs this git ref\n(includes untracked files; combines with -only as a union)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: sflint [flags] [packages]

Runs SmartFlux's project-specific static analyzers over the given package
patterns (default "./..."). Diagnostics print as file:line:col [analyzer] msg.

Flags:
`)
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
Exit status:
  0  no diagnostics (clean, or every finding suppressed with a reason)
  1  one or more diagnostics were reported
  2  load, typecheck, git, or usage error
`)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *enable != "" {
		var err error
		analyzers, err = analysis.ByName(*enable)
		if err != nil {
			fmt.Fprintln(stderr, "sflint:", err)
			return 2
		}
	}
	if *disable != "" {
		skip, err := analysis.ByName(*disable)
		if err != nil {
			fmt.Fprintln(stderr, "sflint:", err)
			return 2
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			skipped := false
			for _, s := range skip {
				if s == a {
					skipped = true
					break
				}
			}
			if !skipped {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(stderr, "sflint: no analyzers enabled")
		return 2
	}

	var onlyPatterns []string
	for _, p := range strings.Split(*only, ",") {
		if p = strings.TrimSpace(p); p != "" {
			onlyPatterns = append(onlyPatterns, p)
		}
	}
	if *diffRef != "" {
		changed, err := changedPackagePatterns(*chdir, *diffRef)
		if err != nil {
			fmt.Fprintln(stderr, "sflint:", err)
			return 2
		}
		if len(changed) == 0 && len(onlyPatterns) == 0 {
			fmt.Fprintf(stdout, "sflint: no Go packages changed vs %s\n", *diffRef)
			return 0
		}
		onlyPatterns = append(onlyPatterns, changed...)
	}

	report, err := analysis.Run(analysis.Options{
		Dir:          *chdir,
		Patterns:     fs.Args(),
		Analyzers:    analyzers,
		IncludeTests: *tests,
		Only:         onlyPatterns,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sflint:", err)
		return 2
	}

	if *audit {
		return printSuppressions(report, stdout, *jsonOut)
	}
	if *jsonOut {
		raw, err := report.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "sflint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(raw))
	} else {
		for _, d := range report.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		// A clean run prints nothing; -suppressions audits what it excused.
		if n := len(report.Suppressed); n > 0 && len(report.Diagnostics) > 0 {
			fmt.Fprintf(stdout, "sflint: %d finding(s) suppressed; run with -suppressions to audit\n", n)
		}
	}
	if len(report.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// changedPackagePatterns maps the .go files changed versus ref — plus any
// untracked ones — to "./dir" package patterns for LoadConfig.Only. Paths
// come back relative to dir (git's --relative; ls-files is cwd-relative by
// default), so the patterns line up with the loader's Dir-relative matching.
// Deleted files still contribute their directory: the surviving files of
// that package must be re-analyzed. A directory that no longer holds a
// package simply matches nothing.
func changedPackagePatterns(dir, ref string) ([]string, error) {
	git := func(args ...string) ([]string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		var stdout, stderrB bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderrB
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderrB.String()))
		}
		var lines []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if l = strings.TrimSpace(l); l != "" {
				lines = append(lines, l)
			}
		}
		return lines, nil
	}
	tracked, err := git("diff", "--name-only", "--relative", ref, "--")
	if err != nil {
		return nil, err
	}
	untracked, err := git("ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]bool)
	for _, f := range append(tracked, untracked...) {
		if !strings.HasSuffix(f, ".go") {
			continue
		}
		d := filepath.ToSlash(filepath.Dir(f))
		if d == "." {
			dirs["."] = true
		} else {
			dirs["./"+d] = true
		}
	}
	patterns := make([]string, 0, len(dirs))
	for d := range dirs {
		patterns = append(patterns, d)
	}
	sort.Strings(patterns)
	return patterns, nil
}

// printSuppressions renders the //sflint:ignore audit. The audit always
// exits 0: its job is visibility, not gating — but every entry it prints
// is a suppression that would otherwise be a diagnostic somewhere.
func printSuppressions(report *analysis.Report, stdout io.Writer, jsonOut bool) int {
	if jsonOut {
		raw, err := report.JSON()
		if err != nil {
			return 2
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}
	if len(report.Suppressions) == 0 {
		fmt.Fprintln(stdout, "sflint: no suppressions in the analyzed packages")
		return 0
	}
	for _, s := range report.Suppressions {
		names := ""
		for i, a := range s.Analyzers {
			if i > 0 {
				names += ","
			}
			names += a
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", s.Position.Filename, s.Position.Line, names, s.Reason)
	}
	fmt.Fprintf(stdout, "sflint: %d suppression(s) total\n", len(report.Suppressions))
	return 0
}
