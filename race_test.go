//go:build race

package passjoin

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop items at random: exact allocation counts do not hold.
const raceEnabled = true
