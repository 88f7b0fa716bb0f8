package analysis

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
)

// Options configures one driver run.
type Options struct {
	// Dir is the directory package patterns are resolved in.
	Dir string
	// Patterns are go package patterns; default "./...".
	Patterns []string
	// Analyzers is the enabled set; default All().
	Analyzers []*Analyzer
	// IncludeTests also analyzes in-package _test.go files.
	IncludeTests bool
	// Only restricts analysis to packages matching these patterns; see
	// LoadConfig.Only. Empty means every loaded package is analyzed.
	Only []string
}

// A SuppressedDiagnostic pairs a diagnostic with the justification that
// silenced it.
type SuppressedDiagnostic struct {
	Diagnostic
	Reason string
}

// A Report is the outcome of one run: surviving diagnostics, the findings
// that were suppressed (with their justifications), and every suppression
// directive present in the analyzed files — whether or not it matched
// anything — for the `sflint -suppressions` audit.
type Report struct {
	Diagnostics  []Diagnostic
	Suppressed   []SuppressedDiagnostic
	Suppressions []Suppression
}

// Run loads the requested packages and applies every enabled analyzer.
// Under Only the load is not the whole module, so an analyzer that needs
// the module-wide view (Unused) does not run.
func Run(opts Options) (*Report, error) {
	analyzers := opts.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	if len(opts.Only) > 0 {
		analyzers = slices.DeleteFunc(slices.Clone(analyzers), func(a *Analyzer) bool { return a == Unused })
	}
	pkgs, err := Load(LoadConfig{Dir: opts.Dir, Patterns: opts.Patterns, IncludeTests: opts.IncludeTests, Only: opts.Only})
	if err != nil {
		return nil, err
	}
	return analyze(pkgs, analyzers), nil
}

// analyze applies analyzers to the loaded packages and settles their
// findings against the suppression directives in them.
func analyze(pkgs []*Package, analyzers []*Analyzer) *Report {
	report := &Report{}
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	shared := map[*Analyzer]any{}
	var suppressions []Suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			// Directives are validated against the full suite so disabling
			// an analyzer never turns its suppressions into "unknown name"
			// errors.
			suppressions = append(suppressions, fileSuppressions(pkg.Fset, f, All(), collect)...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Packages: pkgs,
				report:   collect,
				shared:   shared,
			}
			a.Run(pass)
		}
	}

	used := make([]bool, len(suppressions))
	for _, d := range raw {
		reason, suppressed := "", false
		if d.Analyzer != "sflint" { // the driver's own findings are not suppressible
			for i, s := range suppressions {
				if s.Position.Filename == d.Position.Filename && s.covers(d.Analyzer, d.Position.Line) {
					reason, suppressed, used[i] = s.Reason, true, true
					break
				}
			}
		}
		if suppressed {
			report.Suppressed = append(report.Suppressed, SuppressedDiagnostic{Diagnostic: d, Reason: reason})
		} else {
			report.Diagnostics = append(report.Diagnostics, d)
		}
	}

	// A directive that covered nothing although every analyzer it names ran
	// on its package is stale: left alone, it would silently excuse whatever
	// finding next drifts onto its lines. One naming an analyzer that did not
	// run (an -enable subset) is not judged.
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	for i, s := range suppressions {
		stale := !used[i]
		for _, name := range s.Analyzers {
			stale = stale && enabled[name]
		}
		if stale {
			report.Diagnostics = append(report.Diagnostics, Diagnostic{
				Analyzer: "sflint",
				Position: s.Position,
				Message:  "stale suppression: no " + strings.Join(s.Analyzers, ",") + " finding on this line or the next; delete it",
			})
		}
	}

	sortDiagnostics(report.Diagnostics)
	sort.SliceStable(report.Suppressed, func(i, j int) bool {
		return diagnosticLess(report.Suppressed[i].Diagnostic, report.Suppressed[j].Diagnostic)
	})
	sort.SliceStable(suppressions, func(i, j int) bool {
		si, sj := suppressions[i].Position, suppressions[j].Position
		if si.Filename != sj.Filename {
			return si.Filename < sj.Filename
		}
		return si.Line < sj.Line
	})
	report.Suppressions = suppressions
	return report
}

func diagnosticLess(a, b Diagnostic) bool {
	if a.Position.Filename != b.Position.Filename {
		return a.Position.Filename < b.Position.Filename
	}
	if a.Position.Line != b.Position.Line {
		return a.Position.Line < b.Position.Line
	}
	if a.Position.Column != b.Position.Column {
		return a.Position.Column < b.Position.Column
	}
	return a.Analyzer < b.Analyzer
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool { return diagnosticLess(ds[i], ds[j]) })
}

// --- stable JSON encoding (schema version 1) ---

type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Reason   string `json:"reason,omitempty"` // suppressed findings only
}

type jsonSuppression struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
}

type jsonReport struct {
	Version      int               `json:"version"`
	Diagnostics  []jsonDiagnostic  `json:"diagnostics"`
	Suppressed   []jsonDiagnostic  `json:"suppressed"`
	Suppressions []jsonSuppression `json:"suppressions"`
}

func toJSONDiagnostic(d Diagnostic, reason string) jsonDiagnostic {
	return jsonDiagnostic{
		File:     d.Position.Filename,
		Line:     d.Position.Line,
		Col:      d.Position.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
		Reason:   reason,
	}
}

// JSON renders the report in the stable machine-readable schema consumed by
// CI (version 1). Slices are always present (never null) so consumers can
// index them without nil checks.
func (r *Report) JSON() ([]byte, error) {
	jr := jsonReport{
		Version:      1,
		Diagnostics:  []jsonDiagnostic{},
		Suppressed:   []jsonDiagnostic{},
		Suppressions: []jsonSuppression{},
	}
	for _, d := range r.Diagnostics {
		jr.Diagnostics = append(jr.Diagnostics, toJSONDiagnostic(d, ""))
	}
	for _, s := range r.Suppressed {
		jr.Suppressed = append(jr.Suppressed, toJSONDiagnostic(s.Diagnostic, s.Reason))
	}
	for _, s := range r.Suppressions {
		jr.Suppressions = append(jr.Suppressions, jsonSuppression{
			File:      s.Position.Filename,
			Line:      s.Position.Line,
			Analyzers: s.Analyzers,
			Reason:    s.Reason,
		})
	}
	return json.MarshalIndent(jr, "", "  ")
}
