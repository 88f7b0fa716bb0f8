// Package wantquoted exercises the double-quoted want string form.
package wantquoted

func sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total // want "flows into return value total"
}
