// Package bench stands for the frozen benchmark: its references to another
// package's names do not count for them, its references to its own do.
package bench

import "sflintmod/internal/lib"

type mode int

const (
	modeNone mode = iota // want `const modeNone is unused`
	modeFast
)

func pick() mode { return modeFast }

// Probe calls a name only bench reads.
func Probe() int {
	if pick() == modeFast {
		return lib.OnlyBench()
	}
	return 0
}
