package core

import (
	"passjoin/internal/partition"
	"passjoin/internal/selection"
)

// SelectionScan enumerates the substrings that the given selection method
// would generate for a self join over strs at threshold tau, without
// touching any index: for every string s and every indexed length
// l ∈ [max(τ+1, |s|−τ), |s|], it walks the selected windows of every
// segment slot. It returns the total number of selected substrings and a
// content checksum (so the enumeration cannot be optimized away).
//
// This isolates the substring selection step, which is exactly what
// Figures 12 (counts) and 13 (generation time) of the paper measure.
func SelectionScan(strs []string, tau int, m selection.Method) (count int64, checksum uint64) {
	for _, s := range strs {
		lmin := max(tau+1, len(s)-tau)
		for l := lmin; l <= len(s); l++ {
			for i := 1; i <= tau+1; i++ {
				pi := partition.SegPos(l, tau, i)
				li := partition.SegLen(l, tau, i)
				lo, hi := m.Window(len(s), l, tau, i, pi, li)
				for p := lo; p <= hi; p++ {
					w := s[p-1 : p-1+li]
					count++
					checksum = checksum*31 + uint64(w[0]) + uint64(len(w))
				}
			}
		}
	}
	return count, checksum
}
