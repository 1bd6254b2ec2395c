package verify

// SigOf returns s's 64-bit thermometer-coded character histogram: the bytes
// of s fall into 32 buckets by their low five bits; bit b is set when bucket
// b holds at least one byte, bit 32+b when it holds at least two.
//
// The signature is a one-word filter in front of verification. One edit
// operation moves at most two bucket counts by one each (a substitution
// takes from one bucket and gives to another; an insertion or deletion
// touches one), and moving a count by one flips at most one bit of its
// thermometer code, so for any byte strings a and b
//
//	bits.OnesCount64(SigOf(a)^SigOf(b)) <= 2*EditDistance(a, b)
//
// and a pair whose signatures differ in more than 2τ bits cannot be within
// τ. Like every verifier in this package it counts bytes, not runes.
func SigOf(s string) uint64 {
	var once, twice uint32
	for i := 0; i < len(s); i++ {
		b := uint32(1) << (s[i] & 31)
		twice |= once & b
		once |= b
	}
	return uint64(twice)<<32 | uint64(once)
}

// Sigs returns SigOf of every element of strs, in order.
func Sigs(strs []string) []uint64 {
	out := make([]uint64, len(strs))
	for i, s := range strs {
		out[i] = SigOf(s)
	}
	return out
}
