// Package selection implements the substring selection methods of Pass-Join
// (§4). Given a probe string s and an inverted index L^i_l (the i-th
// segments of indexed strings of length l), each method chooses which
// substrings of s to look up. All four methods of the paper are provided:
//
//   - Length (§4, "length-based"): every substring of the segment's length.
//   - Shift (§4, "shift-based", Wang et al. [22]): start positions within
//     τ of the segment's start position.
//   - Position (§4.1, "position-aware"): start positions bounded by the
//     length-difference argument, ⌊(τ∓Δ)/2⌋ around the segment start.
//   - MultiMatch (§4.2, "multi-match-aware"): the provably minimal window
//     combining the left-side (i−1 preceding segments) and right-side
//     (τ+1−i following segments) pigeonhole bounds.
//
// Windows are expressed as inclusive 1-based start-position ranges, matching
// the paper's notation; an empty window has lo > hi.
package selection

import "fmt"

// Method selects one of the paper's substring selection strategies.
type Method int

const (
	// MultiMatch is the paper's minimal selection (§4.2) and the default.
	MultiMatch Method = iota
	// Position is the position-aware selection (§4.1).
	Position
	// Shift is the shift-based selection extended from Wang et al.
	Shift
	// Length is the exhaustive length-based selection.
	Length
)

// Methods lists all selection methods in pruning-power order (strongest
// first), for sweeps in benchmarks and experiments.
var Methods = []Method{MultiMatch, Position, Shift, Length}

// String returns the name used in the paper's figures.
func (m Method) String() string {
	switch m {
	case Length:
		return "Length"
	case Shift:
		return "Shift"
	case Position:
		return "Position"
	case MultiMatch:
		return "Multi-Match"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Window returns the inclusive 1-based range [lo, hi] of start positions of
// the substrings of a probe string (length sLen) that method m selects for
// the i-th segment (1-based) of indexed strings of length l. pi is the
// 1-based start position of that segment and segLen its length; tau is the
// edit-distance threshold. The window is empty (lo > hi) when no substring
// can match.
//
// The length difference Δ = sLen − l may be negative (R≠S joins probe
// indexes of longer strings); all four formulas remain valid.
func (m Method) Window(sLen, l, tau, i, pi, segLen int) (lo, hi int) {
	return m.WindowQ(sLen, l, tau, tau+1, i, pi, segLen)
}

// WindowQ is Window generalized to a query threshold qtau that may be
// smaller than the threshold the index partition was built for: the
// partition has segs segments (segs = build-τ + 1), while the probe must
// only find strings within qtau edits. By the pigeonhole argument, qtau
// edits destroy at most qtau < segs segments, so the τ-partition still
// answers the smaller threshold exactly — but every shift bound tightens,
// because the edits available on either side of a matched segment are now
// capped by qtau as well as by the segment's position:
//
//   - Shift: |p − pi| ≤ total edits ≤ qtau.
//   - Position: the left shift costs |p − pi| edits and the right shift
//     |p − pi − Δ|, summing to ≤ qtau (§4.1 with τ′ in place of τ).
//   - MultiMatch: the left perspective allows a shift of at most
//     min(i−1, qtau) — the i−1 preceding segments bound it exactly as in
//     §4.2, and the query budget bounds it independently — and the right
//     perspective (relative to pi+Δ) at most min(segs−i, qtau).
//
// With qtau = segs−1 (querying at the build threshold) every cap reduces
// to the paper's original formula, which Window delegates to.
func (m Method) WindowQ(sLen, l, qtau, segs, i, pi, segLen int) (lo, hi int) {
	last := sLen - segLen + 1 // last feasible start position
	if last < 1 {
		return 1, 0
	}
	delta := sLen - l
	switch m {
	case Length:
		lo, hi = 1, last
	case Shift:
		lo = pi - qtau
		hi = pi + qtau
	case Position:
		// pmin = pi − ⌊(τ−Δ)/2⌋, pmax = pi + ⌊(τ+Δ)/2⌋ (§4.1).
		lo = pi - (qtau-delta)/2
		hi = pi + (qtau+delta)/2
	case MultiMatch:
		// ⊥i = max(⊥l_i, ⊥r_i), ⊤i = min(⊤l_i, ⊤r_i) (§4.2), with both
		// per-side shift allowances capped by the query budget.
		capL := min(i-1, qtau)
		capR := min(segs-i, qtau)
		loL := pi - capL
		hiL := pi + capL
		loR := pi + delta - capR
		hiR := pi + delta + capR
		lo = max(loL, loR)
		hi = min(hiL, hiR)
	default:
		panic(fmt.Sprintf("selection: invalid method %d", int(m)))
	}
	if lo < 1 {
		lo = 1
	}
	if hi > last {
		hi = last
	}
	return lo, hi
}

// TheoreticalTotal returns the paper's closed-form count of substrings
// selected for one probe string of length sLen against one indexed length l
// (summed over all tau+1 segments), ignoring boundary clamping:
//
//	Length:     (τ+1)(|s|+1) − l
//	Shift:      (τ+1)(2τ+1)
//	Position:   (τ+1)²
//	MultiMatch: ⌊(τ²−Δ²)/2⌋ + τ + 1       (Lemma 2)
func (m Method) TheoreticalTotal(sLen, l, tau int) int {
	delta := sLen - l
	switch m {
	case Length:
		return (tau+1)*(sLen+1) - l
	case Shift:
		return (tau + 1) * (2*tau + 1)
	case Position:
		return (tau + 1) * (tau + 1)
	case MultiMatch:
		return (tau*tau-delta*delta)/2 + tau + 1
	default:
		panic(fmt.Sprintf("selection: invalid method %d", int(m)))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
