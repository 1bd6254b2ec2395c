// Package partition implements the even-partition scheme of Pass-Join
// (§3.1): a string of length l >= tau+1 is split into tau+1 disjoint
// segments whose lengths differ by at most one. With
//
//	q = ⌊l/(tau+1)⌋ and k = l − q·(tau+1),
//
// the first tau+1−k segments have length q and the last k segments have
// length q+1. Positions are 1-based to match the paper's notation; the
// helpers that slice Go strings convert internally.
package partition

import "fmt"

// Valid reports whether a string of length l can be evenly partitioned under
// threshold tau.
func Valid(l, tau int) bool { return tau >= 0 && l >= tau+1 }

// SegLen returns the length of the i-th segment (1 <= i <= tau+1) of a
// string of length l. It panics if the arguments are out of range; engine
// code validates lengths up front, so a violation is a programming error.
func SegLen(l, tau, i int) int {
	check(l, tau, i)
	q := l / (tau + 1)
	k := l - q*(tau+1)
	if i <= tau+1-k {
		return q
	}
	return q + 1
}

// SegPos returns the 1-based start position of the i-th segment of a string
// of length l.
func SegPos(l, tau, i int) int {
	check(l, tau, i)
	q := l / (tau + 1)
	k := l - q*(tau+1)
	// Segments before i: (i-1) of length q, plus one extra character for each
	// long segment among them (long segments start at index tau+2-k).
	extra := i - 1 - (tau + 1 - k)
	if extra < 0 {
		extra = 0
	}
	return 1 + (i-1)*q + extra
}

// Seg describes one segment: 1-based start position and length.
type Seg struct {
	Pos int
	Len int
}

// Segments returns the tau+1 segments of a string of length l.
func Segments(l, tau int) []Seg {
	if !Valid(l, tau) {
		panic(fmt.Sprintf("partition: length %d cannot be split into %d segments", l, tau+1))
	}
	segs := make([]Seg, tau+1)
	q := l / (tau + 1)
	k := l - q*(tau+1)
	pos := 1
	for i := 1; i <= tau+1; i++ {
		n := q
		if i > tau+1-k {
			n = q + 1
		}
		segs[i-1] = Seg{Pos: pos, Len: n}
		pos += n
	}
	return segs
}

// Split returns the tau+1 segment substrings of s. The returned strings
// share s's backing array (no copies).
func Split(s string, tau int) []string {
	segs := Segments(len(s), tau)
	out := make([]string, len(segs))
	for i, g := range segs {
		out[i] = s[g.Pos-1 : g.Pos-1+g.Len]
	}
	return out
}

func check(l, tau, i int) {
	if tau < 0 || l < tau+1 {
		panic(fmt.Sprintf("partition: length %d cannot be split into %d segments", l, tau+1))
	}
	if i < 1 || i > tau+1 {
		panic(fmt.Sprintf("partition: segment index %d out of range [1,%d]", i, tau+1))
	}
}
