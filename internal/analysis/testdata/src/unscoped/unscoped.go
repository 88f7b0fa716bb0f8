// Package unscoped is outside detflow's wall-clock and global-rand scope:
// the same sources that taint a stored value under smartflux/internal/engine
// are not sources here.
package unscoped

import (
	"math/rand"
	"time"
)

// Stamp reads the clock outside the determinism scope.
func Stamp() time.Time {
	return time.Now()
}

// Roll uses the global RNG outside the determinism scope.
func Roll() int {
	return rand.Int()
}
