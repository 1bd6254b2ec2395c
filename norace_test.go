//go:build !race

package passjoin

const raceEnabled = false
