// Package core implements the Pass-Join engine (§3.2, Algorithm 1): sort
// the strings by (length, content), scan them in order — a chunk of
// equal-length strings at a time, which all select the same substrings
// (blockJoin) — probe the segment inverted indices of the lengths in the
// scan's window — bulk-built, one length group at a time, as the window
// reaches them — with the substrings chosen by a selection method, and
// verify the candidates that precede the current string with a configurable
// verifier. The engine also supports
// R≠S joins, an online matcher, and a parallel probe mode (index everything
// once, probe read-only from several goroutines).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"passjoin/internal/metrics"
	"passjoin/internal/selection"
)

// Pair is one join result. For self joins R < S and both index into the
// caller's input slice. For R≠S joins R indexes the first input and S the
// second.
type Pair struct {
	R, S int32
}

// VerifyKind selects the verification algorithm of §5.
type VerifyKind int

const (
	// VerifyExtensionShared is the paper's full method: extension-based
	// verification with tight per-side thresholds, length-aware banded DP,
	// expected-edit-distance early termination and shared computation on
	// common prefixes (the "SharePrefix" series of Figure 14). Default.
	VerifyExtensionShared VerifyKind = iota
	// VerifyExtension is extension-based verification without prefix
	// sharing (the "Extension" series).
	VerifyExtension
	// VerifyLengthAware verifies whole candidate strings with the τ+1
	// banded DP and expected-edit-distance early termination (the "τ+1"
	// series).
	VerifyLengthAware
	// VerifyNaive verifies whole candidate strings with the 2τ+1 band and
	// plain prefix pruning (the "2τ+1" series).
	VerifyNaive
	// VerifyMyers verifies whole candidate strings with the bit-parallel
	// Myers kernel (an extension beyond the paper; see internal/verify).
	VerifyMyers
)

// VerifyKinds lists all verification modes, strongest first.
var VerifyKinds = []VerifyKind{VerifyExtensionShared, VerifyExtension, VerifyLengthAware, VerifyNaive, VerifyMyers}

// String names match Figure 14's series labels.
func (k VerifyKind) String() string {
	switch k {
	case VerifyNaive:
		return "2tau+1"
	case VerifyLengthAware:
		return "tau+1"
	case VerifyExtension:
		return "Extension"
	case VerifyExtensionShared:
		return "SharePrefix"
	case VerifyMyers:
		return "Myers"
	default:
		return fmt.Sprintf("VerifyKind(%d)", int(k))
	}
}

// ParseVerifyKind converts a user-facing name into a VerifyKind.
func ParseVerifyKind(name string) (VerifyKind, error) {
	switch name {
	case "naive", "2tau+1":
		return VerifyNaive, nil
	case "lengthaware", "tau+1":
		return VerifyLengthAware, nil
	case "extension", "Extension":
		return VerifyExtension, nil
	case "shareprefix", "SharePrefix", "shared":
		return VerifyExtensionShared, nil
	case "bitparallel", "myers", "Myers":
		return VerifyMyers, nil
	}
	return 0, fmt.Errorf("core: unknown verify kind %q", name)
}

// Options configures a join.
type Options struct {
	// Tau is the edit-distance threshold (required, >= 0).
	Tau int
	// Selection method; zero value is MultiMatch (the paper's default).
	Selection selection.Method
	// Verification algorithm; zero value is VerifyExtensionShared.
	Verification VerifyKind
	// Stats, when non-nil, receives instrumentation counters.
	Stats *metrics.Stats
	// Parallel picks a join's mode and is the number of workers it sorts
	// with (at least 1). At most 1, every join runs the sequential scan over
	// a sliding window of length groups; above 1, the index-once mode, in
	// which that many workers build the whole index and then probe it.
	Parallel int
}

// offAt is off[l] with l clamped into the table: the number of strings
// shorter than l.
func offAt(off []int, l int) int {
	return off[min(max(l, 0), len(off)-1)]
}

// SortPairs orders pairs lexicographically; used to canonicalize results.
// Indices are non-negative, so one packed key compares as the two fields do.
func SortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Compare(pairKey(a), pairKey(b))
	})
}

// pairKey packs p into one word that orders as (R, S).
func pairKey(p Pair) uint64 {
	return uint64(uint32(p.R))<<32 | uint64(uint32(p.S))
}

// normalize returns a self-join pair with the smaller original index first.
func normalize(a, b int32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{R: a, S: b}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
