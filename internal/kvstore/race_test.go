//go:build race

package kvstore

// raceEnabled reports a -race build. Its instrumentation changes what
// escapes, so allocation guards do not hold under it.
const raceEnabled = true
