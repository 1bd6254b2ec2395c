package verify

import "passjoin/internal/metrics"

// Verifier computes thresholded edit distances with reusable row buffers so
// the hot join loop performs no allocations. The zero value is ready to use.
// A Verifier is not safe for concurrent use; each worker owns one.
type Verifier struct {
	band band
	// Stats, when non-nil, receives DPCells/EarlyTerms counters.
	Stats *metrics.Stats
}

// Dist returns min(ed(a,b), tau+1) using the length-aware band of §5.1:
// row i only computes columns j with i−⌊(τ−Δ)/2⌋ ≤ j ≤ i+⌊(τ+Δ)/2⌋ where
// Δ = |b|−|a| (the band adapts to the length difference, τ+1 cells per row),
// and the computation terminates early as soon as every expected edit
// distance E(i,j) = M(i,j) + |(|b|−j)−(|a|−i)| in a row exceeds tau
// (Lemma 4).
func (v *Verifier) Dist(a, b string, tau int) int {
	return v.banded(a, b, tau, true)
}

// DistNaive returns min(ed(a,b), tau+1) using the naive band of prior work:
// 2τ+1 cells per row (|j−i| ≤ τ) and prefix pruning only (terminate when
// every M(i,j) in a row exceeds tau). It exists as the "2τ+1" baseline of
// Figure 14.
func (v *Verifier) DistNaive(a, b string, tau int) int {
	return v.banded(a, b, tau, false)
}

// banded runs the band kernel over rows of a and columns of b, two rolling
// rows deep. Works for either orientation (|a| ≤ |b| or |a| > |b|).
func (v *Verifier) banded(a, b string, tau int, lengthAware bool) int {
	m, n := len(a), len(b)
	tau = clampTau(tau, m, n)
	if abs(n-m) > tau {
		return tau + 1
	}
	if m == 0 || n == 0 {
		// Distance is the length of the other string, already known ≤ tau.
		return maxInt(m, n)
	}
	g := &v.band
	g.setup(m, n, tau, lengthAware, 2)
	if g.run(a, b, 1, 1, v.Stats) <= m {
		return tau + 1
	}
	return g.result(m, n, 1)
}

// clampTau returns min(tau, max(m, n)) for two strings of lengths m and n.
// No edit distance exceeds the longer length, so min(ed, tau+1) is the same
// under the clamped threshold, while the band — sized by the threshold
// before any byte is compared — stays no wider than the matrix, and tau+1
// fits a cell.
func clampTau(tau, m, n int) int {
	if tau < 0 {
		panic("verify: negative threshold")
	}
	return minInt(tau, maxInt(m, n))
}

// band is the banded dynamic program under both Verifier and Incremental:
// the geometry of one (|a|, |b|, τ) and the rows computed in it.
//
// A row holds the width cells of its band and then one sentinel. Cell k of
// row i is column j = i−left+k, and stores min(M(i,j), τ+1): taking the
// minimum with τ+1 commutes with the recurrence (each step is a minimum of
// neighbours plus 0 or 1) and with every comparison against τ, so no cell
// needs an "unreachable" marker and a narrow type holds any of them. The
// sentinel is τ+1, which is what a cell past the band's right edge would
// saturate to; the left neighbour is carried in a register and starts at
// τ+1 for the same reason. Columns outside the matrix are clipped once per
// row, so the inner loop tests nothing but values.
//
// Cells are int32: τ+1 plus a Lemma 4 term stays below 2³¹ for strings
// under 2²⁹ bytes, past which two rows of a full-width band do not fit in
// memory anyway.
type band struct {
	left, width int
	sat         int32 // τ+1, the value cells saturate at
	// term[k] is Lemma 4's |(n−j)−(m−i)| = |Δ+left−k|, which depends on the
	// band offset only; all zeros for the naive band, whose rows are pruned
	// on M(i,j) alone.
	term  []int32
	cells []int32
}

// setup fixes the geometry for rows of a length-m string against columns of
// a length-n one, with |n−m| ≤ tau ≤ max(m, n), makes room for rows rows of
// it, and writes row 0. It costs O(width) whatever m is.
func (g *band) setup(m, n, tau int, lengthAware bool, rows int) {
	d := n - m
	left, right := tau, tau
	if lengthAware {
		left, right = (tau-d)/2, (tau+d)/2
	}
	width := left + right + 1
	g.left, g.width, g.sat = left, width, int32(tau+1)

	if cap(g.term) < width {
		g.term = make([]int32, width)
	}
	g.term = g.term[:width]
	for k := range g.term {
		g.term[k] = 0
		if lengthAware {
			g.term[k] = int32(abs(d + left - k))
		}
	}

	// Grown geometrically: Incremental keeps m+1 rows and a join meets
	// lengths ascending, so growing to need alone reallocates the slab at
	// almost every new length.
	if need := rows * (width + 1); len(g.cells) < need {
		g.cells = make([]int32, max(need, 2*len(g.cells)))
	}
	// Row 0: M(0,j) = j for the columns 0..n the band covers.
	row := g.cells[:width+1]
	for k := range row {
		row[k] = g.sat
		if j := k - left; j >= 0 && j <= n {
			row[k] = min(int32(j), g.sat)
		}
	}
}

// run computes rows from..len(a) of a against b, each from the row above it,
// and returns the first row in which every expected distance exceeds τ, or
// len(a)+1 when none does. Row i lives at offset (i&mask)·(width+1): mask 1
// rolls two rows, mask −1 keeps all. st, when non-nil, receives the cells
// computed and the early termination.
func (g *band) run(a, b string, from, mask int, st *metrics.Stats) (stop int) {
	m, n := len(a), len(b)
	left, width, sat := g.left, g.width, g.sat
	stride := width + 1
	stop = m + 1
	cells := 0
	for i := from; i <= m; i++ {
		// Clip the row to columns 0..n.
		kLo := maxInt(0, left-i)
		kHi := minInt(width-1, n-i+left)
		prev := g.cells[((i-1)&mask)*stride:][:stride]
		cur := g.cells[(i&mask)*stride:][:stride]
		cur[width] = sat
		cells += kHi - kLo + 1

		ai := a[i-1]
		rowMin := sat + 1
		lf := sat // left neighbour M(i,j−1)
		k := kLo
		if left >= i {
			// Column 0: M(i,0) = i.
			lf = min(int32(i), sat)
			cur[k] = lf
			rowMin = lf + g.term[k]
			k++
		}
		// Cell k is column j = i−left+k and compares a[i−1] with b[j−1];
		// its diagonal neighbour is prev[k], the one above it prev[k+1].
		diag := prev[k : kHi+2]
		out := cur[k : kHi+1]
		term := g.term[k : kHi+1]
		bs := b[i-left+k-1 : i-left+kHi]
		for x := range out {
			c := diag[x]
			if ai != bs[x] {
				c++
			}
			c = min(c, diag[x+1]+1, lf+1, sat)
			out[x] = c
			lf = c
			rowMin = min(rowMin, c+term[x])
		}
		if rowMin >= sat { // every E(i,j) exceeds τ
			stop = i
			break
		}
	}
	if st != nil {
		st.DPCells += int64(cells)
		if stop <= m {
			st.EarlyTerms++
		}
	}
	return stop
}

// result returns min(ed, τ+1) from row m of a finished run: M(m,n).
func (g *band) result(m, n, mask int) int {
	return int(g.cells[(m&mask)*(g.width+1)+n-m+g.left])
}
