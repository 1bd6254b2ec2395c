//go:build race

package dynamic

// raceEnabled reports whether the tests run under the race detector, whose
// shadow memory multiplies what the record-bound tests hold (hundreds of MB).
const raceEnabled = true
