// Package wantself deliberately mismatches its annotations so the harness
// test can verify both failure directions: a diagnostic with no want, and
// a want with no diagnostic. It is excluded from the per-analyzer corpus
// tests.
package wantself

// unannotated produces a detflow diagnostic with no want comment.
func unannotated(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// cleanButAnnotated claims a diagnostic that never fires.
func cleanButAnnotated(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum // want `flows into return value`
}
