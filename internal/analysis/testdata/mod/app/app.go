// Package app reads the unused corpus's names from outside package lib.
package app

import (
	"fmt"

	"sflintmod/internal/lib"
)

// Run calls lib's names the way a program would.
func Run() (float64, int, string) {
	var s lib.Set[string]
	s.Add("x")
	var sh lib.Shape = lib.Square{Side: 2}
	return sh.Area(), lib.Used(), fmt.Sprint(&lib.Sink{})
}
