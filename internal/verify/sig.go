package verify

import "math/bits"

// SigOf returns s's 64-bit character histogram modulo 4: the bytes of s
// fall into 32 buckets by their low five bits, and bucket b's byte count,
// modulo 4, is the two-bit number whose low bit is bit b of the word and
// whose high bit is bit 32+b — 32 counters that wrap, stored as two planes.
//
// The signature is a one-word filter in front of verification; SigDist
// turns two of them into a lower bound on twice the edit distance. A
// counter that wraps keeps telling strings apart however long they grow,
// where one that saturates reads "full" in every bucket of every long
// string. Like every verifier in this package it counts bytes, not runes.
func SigOf(s string) uint64 {
	var lo, hi uint32
	for i := 0; i < len(s); i++ {
		b := uint32(1) << (s[i] & 31)
		// Add one to bucket b: the high bit flips when the low bit was set.
		hi ^= lo & b
		lo ^= b
	}
	return uint64(hi)<<32 | uint64(lo)
}

// SigDist returns the sum, over the 32 buckets, of the circular distance
// min(d, 4−d) between the two signatures' counters, d being their
// difference modulo 4. For any byte strings a and b
//
//	SigDist(SigOf(a), SigOf(b)) <= 2*EditDistance(a, b)
//
// because two residues are never further apart on the circle than the
// counts they stand for are on the line, so the sum is at most the L1
// distance of the two byte histograms, and one edit operation moves at
// most two bucket counts by one each (a substitution takes from one bucket
// and gives to another; an insertion or deletion touches one). A pair
// with SigDist above 2τ cannot be within τ.
func SigDist(a, b uint64) int {
	x := a ^ b
	// The distance is 1 where the low bits differ (d odd) and 2 where only
	// the high bits do (d = 2).
	lo, hi := uint32(x), uint32(x>>32)
	return bits.OnesCount32(lo) + 2*bits.OnesCount32(hi&^lo)
}

// Sigs fills dst with SigOf of the elements of strs, in order; the two are
// the same length.
func Sigs(dst []uint64, strs []string) {
	for i, s := range strs {
		dst[i] = SigOf(s)
	}
}
