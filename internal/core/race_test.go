//go:build race

package core

// raceEnabled reports a -race build, under which the crash sweep
// (TestCrashAtEveryWaveBoundary) runs a stride of its wave boundaries.
const raceEnabled = true
