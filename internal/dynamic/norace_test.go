//go:build !race

package dynamic

const raceEnabled = false
