//go:build !race

package kvstore

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
