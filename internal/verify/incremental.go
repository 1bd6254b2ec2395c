package verify

import "passjoin/internal/metrics"

// Incremental is the shared-computation verifier of §5.3. It verifies a
// sequence of source strings against one fixed target string, resuming the
// dynamic program from the longest common prefix of consecutive sources.
// Inverted lists are sorted (the join visits strings in sorted order), so
// consecutive left parts share long prefixes and most rows are reused.
//
// The matrix is banded exactly like Verifier.Dist (length-aware, τ+1 cells
// per row) with the expected-edit-distance early termination: the same band
// kernel, with every row retained so that a later source can resume at any
// prefix depth. An inverted list is a few candidates long, so Reset and the
// first Dist after it cost O(τ), not O(|r|).
//
// The zero value is ready; call Reset before the first Dist.
type Incremental struct {
	t   string // fixed side (columns)
	tau int
	m   int // source length (rows) the band is set up for, -1 after Reset

	band     band
	computed int    // rows 0..computed hold the DP of prev
	earlyRow int    // row where the last run terminated early, -1 if none
	prev     string // previous source

	// Stats, when non-nil, receives DPCells/EarlyTerms/SharedRows counters.
	Stats *metrics.Stats
}

// Reset fixes the target string and threshold for subsequent Dist calls and
// invalidates any cached rows.
func (v *Incremental) Reset(t string, tau int) {
	if tau < 0 {
		panic("verify: negative threshold")
	}
	v.t = t
	v.tau = tau
	v.m = -1
}

// Dist returns min(ed(r, t), tau+1) where t and tau were fixed by Reset.
// Sources of differing lengths invalidate the cache (the band geometry and
// the early-termination bound depend on |r|) but remain correct.
func (v *Incremental) Dist(r string) int {
	m, n := len(r), len(v.t)
	if abs(n-m) > v.tau {
		return v.tau + 1
	}
	if m == 0 || n == 0 {
		return maxInt(m, n)
	}
	g := &v.band
	if m != v.m {
		// Only row 0 is valid, which no source's prefix can take away.
		g.setup(m, n, clampTau(v.tau, m, n), true, m+1)
		v.m = m
		v.computed = 0
		v.earlyRow = -1
		v.prev = ""
	}

	// Resume depth: rows 0..c are valid, where c is bounded by the common
	// prefix with the previous source and by how many rows were computed.
	c := minInt(commonPrefix(v.prev, r), v.computed)
	if v.Stats != nil {
		v.Stats.SharedRows += int64(c)
	}
	v.prev = r
	if v.earlyRow >= 0 && v.earlyRow <= c {
		// A previous source with this exact prefix terminated early at a row
		// we are reusing; the verdict only depends on that prefix.
		v.computed = v.earlyRow
		return int(g.sat)
	}

	if stop := g.run(r, v.t, c+1, -1, v.Stats); stop <= m {
		v.computed = stop
		v.earlyRow = stop
		return int(g.sat)
	}
	v.computed = m
	v.earlyRow = -1
	return g.result(m, n, -1)
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := minInt(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
