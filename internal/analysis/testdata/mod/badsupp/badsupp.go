// Package badsupp carries malformed suppression directives: sflint must
// report them instead of silently ignoring (or honoring) them.
package badsupp

// MissingReason suppresses without saying why.
func MissingReason(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		//sflint:ignore detflow
		sum += v
	}
	return sum
}

// UnknownAnalyzer names an analyzer that does not exist.
func UnknownAnalyzer() {
	//sflint:ignore nosuchanalyzer because reasons
	_ = 0
}
