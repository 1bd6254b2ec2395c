//go:build race

package repro

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation distorts every timing.
const raceEnabled = true
