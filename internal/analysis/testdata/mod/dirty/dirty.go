// Package dirty carries known diagnostics for the driver and CLI tests:
// one live detflow finding, one suppressed detflow finding (with a
// justification), one errdrop finding and one goroleak finding.
package dirty

type flusher struct{}

// Flush pretends to drain a buffer.
func (f *flusher) Flush() error { return nil }

// LiveSum is an unsuppressed detflow diagnostic (dirty.go line 17).
func LiveSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// SuppressedSum carries a justified suppression and must not appear in
// Diagnostics — only in Suppressed and in the -suppressions audit.
func SuppressedSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	//sflint:ignore detflow test corpus: order insensitivity proven elsewhere
	return sum
}

// DropFlush discards an io.Closer-shaped error.
func DropFlush(f *flusher) {
	f.Flush()
}

// Spawn leaks a goroutine.
func Spawn() {
	go func() {
		_ = 1 + 1
	}()
}
