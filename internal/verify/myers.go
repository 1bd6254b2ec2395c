package verify

// Bit-parallel edit distance (Myers 1999, in Hyyrö's formulation): the
// dynamic-programming column is encoded in two machine words of vertical
// delta bits, advancing one text character per constant-time step. For
// patterns up to 64 characters this computes the exact distance in
// O(|text|) word operations — an extension beyond the paper (whose
// evaluation predates widespread use of bit-parallel verifiers) wired into
// the engine as a fifth verification mode so it can be ablated against the
// banded verifiers of §5.
//
// The kernel is split in two: building the pattern's Peq table (one bitmask
// per byte value marking where that byte occurs in the pattern) and running
// the column recurrence over a text. Per-pair callers fuse the two; the
// batch verification path builds the table once per query via Pattern and
// amortizes it over a probe's whole candidate set.

// myersRun advances the bit-parallel column over text b for a pattern of
// length m (1 <= m <= 64) whose occurrence masks are in peq, returning the
// exact edit distance.
func myersRun(peq *[256]uint64, m int, b string) int {
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	mask := uint64(1) << uint(m-1)
	for j := 0; j < len(b); j++ {
		eq := peq[b[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&mask != 0 {
			score++
		}
		if mh&mask != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myers64 returns ed(a, b) for 1 <= len(a) <= 64 using the bit-parallel
// recurrence, building the pattern table inline (the one-shot form).
func myers64(a, b string) int {
	var peq [256]uint64
	for i := 0; i < len(a); i++ {
		peq[a[i]] |= 1 << uint(i)
	}
	return myersRun(&peq, len(a), b)
}

// Pattern is a reusable query-side profile for the bit-parallel kernel:
// the Peq occurrence table of one fixed pattern string, built once and
// shared across every candidate verified against it. Rebuilding this
// 2KB table per pair is the single largest per-verification constant for
// word-sized strings; a probe verifies its whole candidate set against one
// query, so the prober keeps one Pattern and Sets it once per probe.
//
// The zero value is ready. A Pattern is not safe for concurrent use; each
// worker owns one (it lives inside the per-worker verification scratch).
type Pattern struct {
	q    string
	peq  [256]uint64
	word bool // len(q) in [1, 64]: peq is valid and the kernel applies
}

// Set fixes the pattern string, rebuilding the occurrence table. Clearing
// is sparse — only the byte values of the previous pattern are zeroed — so
// switching patterns costs O(|old| + |new|) word writes, not a 2KB wipe.
// Setting the same string again is a no-op.
func (p *Pattern) Set(q string) {
	if p.q == q {
		return
	}
	if p.word {
		for i := 0; i < len(p.q); i++ {
			p.peq[p.q[i]] = 0
		}
	}
	p.q = q
	p.word = len(q) >= 1 && len(q) <= 64
	if p.word {
		for i := 0; i < len(q); i++ {
			p.peq[q[i]] |= 1 << uint(i)
		}
	}
}

// String returns the currently set pattern string.
func (p *Pattern) String() string { return p.q }

// DistPattern returns min(ed(pat.q, b), tau+1) using pat's precomputed
// occurrence table. Patterns longer than a machine word route through the
// length-aware banded kernel with the caller's tau (never the full
// unbounded DP). Edit distance is symmetric, so the pattern is always the
// query side regardless of which string is shorter — that is what lets one
// table serve a whole candidate set spanning lengths on both sides of the
// query's.
func (v *Verifier) DistPattern(pat *Pattern, b string, tau int) int {
	tau = clampTau(tau, len(pat.q), len(b))
	if abs(len(b)-len(pat.q)) > tau {
		return tau + 1
	}
	if len(pat.q) == 0 || len(b) == 0 {
		return minInt(maxInt(len(pat.q), len(b)), tau+1)
	}
	if !pat.word {
		return v.Dist(pat.q, b, tau)
	}
	if v.Stats != nil {
		// One word-op column per text character.
		v.Stats.DPCells += int64(len(b))
	}
	return minInt(myersRun(&pat.peq, len(pat.q), b), tau+1)
}

// DistMyers returns min(ed(a,b), tau+1) via the bit-parallel kernel. For
// strings longer than a machine word it falls back to the length-aware
// banded verifier (which also restores early termination, more valuable
// for long strings anyway).
func (v *Verifier) DistMyers(a, b string, tau int) int {
	tau = clampTau(tau, len(a), len(b))
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > tau {
		return tau + 1
	}
	if len(a) == 0 {
		return minInt(len(b), tau+1)
	}
	if len(a) > 64 {
		return v.Dist(a, b, tau)
	}
	if v.Stats != nil {
		// One word-op column per text character.
		v.Stats.DPCells += int64(len(b))
	}
	return minInt(myers64(a, b), tau+1)
}
