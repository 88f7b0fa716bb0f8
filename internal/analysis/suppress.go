package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// suppressPrefix is the comment directive that silences a diagnostic:
//
//	//sflint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory — an ignore without a justification is itself
// reported as a diagnostic (analyzer "sflint"), so suppressions can never
// silently accumulate without explanation. A suppression applies to
// diagnostics on its own line and on the line directly below it, covering
// both trailing comments and whole-line comments above the offending code.
// One that covers nothing once its analyzers have run is reported as stale
// (see Run), so a suppression cannot outlive the finding it excused.
const suppressPrefix = "//sflint:ignore"

// A Suppression is one parsed //sflint:ignore directive.
type Suppression struct {
	Position  token.Position
	Analyzers []string
	Reason    string
}

// covers reports whether the suppression applies to a diagnostic from the
// named analyzer at the given line of the same file.
func (s Suppression) covers(analyzer string, line int) bool {
	if line != s.Position.Line && line != s.Position.Line+1 {
		return false
	}
	for _, a := range s.Analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// fileSuppressions extracts every suppression directive in f. Malformed
// directives (unknown analyzer, missing reason) are reported through report
// as diagnostics attributed to the pseudo-analyzer "sflint"; those
// diagnostics cannot themselves be suppressed.
func fileSuppressions(fset *token.FileSet, f *ast.File, known []*Analyzer, report func(Diagnostic)) []Suppression {
	var out []Suppression
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := c.Text
			if !strings.HasPrefix(text, suppressPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			malformed := func(msg string) {
				report(Diagnostic{
					Analyzer: "sflint",
					Position: pos,
					Message:  "malformed suppression: " + msg,
				})
			}
			fields := strings.Fields(strings.TrimPrefix(text, suppressPrefix))
			if len(fields) == 0 {
				malformed("missing analyzer name and reason")
				continue
			}
			names := strings.Split(fields[0], ",")
			ok := true
			for _, name := range names {
				found := false
				for _, a := range known {
					if a.Name == name {
						found = true
						break
					}
				}
				if !found {
					malformed("unknown analyzer " + name)
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			reason := strings.TrimSpace(strings.Join(fields[1:], " "))
			if reason == "" {
				malformed("missing reason: every suppression must say why it is safe")
				continue
			}
			out = append(out, Suppression{Position: pos, Analyzers: names, Reason: reason})
		}
	}
	return out
}
