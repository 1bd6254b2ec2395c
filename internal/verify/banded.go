package verify

import (
	"math/bits"
	"slices"

	"passjoin/internal/metrics"
)

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
// the geometry of one (|a|, |b|, τ) and the rows computed in it. Row i of
// the band covers columns i−left..i−left+width−1 of M.
//
// A length-aware band of at most 64 columns — every τ ≤ 63 — runs the word
// kernel: a row is one wordRow, advanced a source byte at a time by Myers'
// bit-parallel step (Hyyrö's banded form). Wider bands and the naive 2τ+1
// band run the scalar kernel over int32 cells. Both stop at the same row
// and return the same distance (see runWord), so the counters do not say
// which one ran.
type band struct {
	d, left, width int
	sat            int32 // τ+1, the value cells saturate at
	lengthAware    bool
	word           bool // the word kernel applies: rows live in words

	// cells holds the scalar kernel's rows. A row holds the width cells of
	// its band and then one sentinel. Cell k of row i is column
	// j = i−left+k, and stores min(M(i,j), τ+1): taking the minimum with τ+1
	// commutes with the recurrence (each step is a minimum of neighbours
	// plus 0 or 1) and with every comparison against τ, so no cell needs an
	// "unreachable" marker and a narrow type holds any of them. The sentinel
	// is τ+1, which is what a cell past the band's right edge would saturate
	// to; the left neighbour is carried in a register and starts at τ+1 for
	// the same reason. Columns outside the matrix are clipped once per row,
	// so the inner loop tests nothing but values. Cells are int32: τ+1 plus
	// a Lemma 4 term stays below 2³¹ for strings under 2²⁹ bytes, past which
	// two rows of a full-width band do not fit in memory anyway.
	cells []int32
	// words holds the word kernel's rows, one record per row.
	words []wordRow
}

// wordRow is one row i of the word kernel, whose cell values V runWord
// relates to M: bit k of hp (hn) is set when V(i,c) − V(i,c−1) is +1 (−1)
// for column c = anchor(i)+k, and base is V(i, anchor(i)−1). The window is
// anchored at column 1 while the band still reaches column 0
// (anchor(i) = max(1, i−left)), and slides one column per row after that.
// The 64 columns reach past the band's right edge; what those extra
// columns hold is explained in runWord.
type wordRow struct {
	hp, hn uint64
	base   int
}

// at returns V(i, anchor(i)+k), for 0 ≤ k < 64.
func (r *wordRow) at(k int) int {
	m := uint64(2)<<uint(k) - 1
	return r.base + bits.OnesCount64(r.hp&m) - bits.OnesCount64(r.hn&m)
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
	g.d, g.left, g.width, g.sat = d, left, width, int32(tau+1)
	g.lengthAware = lengthAware
	g.word = lengthAware && width <= 64

	// Both slabs grow geometrically: Incremental keeps m+1 rows and a join
	// meets lengths ascending, so growing to need alone reallocates the slab
	// at almost every new length.
	if g.word {
		if len(g.words) < rows {
			g.words = make([]wordRow, max(rows, 2*len(g.words)))
		}
		// Row 0: M(0,c) = c, so every delta is +1 and V(0,0) = 0.
		g.words[0] = wordRow{hp: ^uint64(0)}
		return
	}
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
// len(a)+1 when none does. Row i is kept at index i&mask: mask 1 rolls two
// rows, mask −1 keeps all. st, when non-nil, receives the cells of the band
// inside the matrix (the same count for either kernel) and the early
// termination.
//
// Lemma 4 is read from one cell per row in the length-aware band. M is
// 1-Lipschitz along a row, so E(i,j) = M(i,j) + |Δ−(j−i)| is smallest at
// column i+Δ, or at column 0 while i+Δ < 0; both are in the band. Any cell
// with E ≤ τ has its optimal path inside the length-aware band (each cell
// (i′,j′) on it has |j′−i′| + |Δ−(j′−i′)| ≤ E ≤ τ), so that cell's banded
// value is exact, and one cell decides the row.
func (g *band) run(a, b string, from, mask int, st *metrics.Stats) (stop int) {
	if g.word {
		stop = g.runWord(a, b, from, mask)
	} else {
		stop = g.runCells(a, b, from, mask)
	}
	if st != nil {
		m := len(a)
		st.DPCells += int64(g.cellsIn(len(b), from, min(stop, m)))
		if stop <= m {
			st.EarlyTerms++
		}
	}
	return stop
}

// cellsIn returns how many cells of rows from..to lie in columns 0..n:
// width per row, less the max(0, left−i) columns left of column 0 and the
// max(0, i−(n−right)) right of column n.
func (g *band) cellsIn(n, from, to int) int {
	right := g.width - 1 - g.left
	return (to-from+1)*g.width - rampSum(from, to, g.left) - rampSum(-to, -from, right-n)
}

// rampSum returns the sum of max(0, c−i) over i = lo..hi.
func rampSum(lo, hi, c int) int {
	hi = min(hi, c-1)
	if hi < lo {
		return 0
	}
	return (hi - lo + 1) * (2*c - lo - hi) / 2
}

// runWord is run for the word kernel. Each row is one Myers step with the
// roles of rows and columns swapped: the word holds the row's horizontal
// deltas, the source byte is compared with the window's target bytes eight
// at a time, and the vertical delta entering at bit 0 is +1 — column 0's
// M(i,0) = i while anchored, and V(i−1, anchor−1)+1 once the window slides,
// where the cell left of the window is outside the band and costs one more
// than its diagonal, so it never wins. A slide drops bit 0 into base and
// injects +1 at bit 63: the cell shifted in is one more than its left
// neighbour, an alignment cost like every other V, and as the cell above
// bit 63 it never beats that cell's diagonal either.
//
// The kernel's values V differ from the scalar band's outside the band and
// may differ inside it: the columns right of the band are computed rather
// than excluded. But every V is the cost of some alignment (or, past column
// n, never read, since values flow only rightwards and down), and every
// in-band V is at most the banded value, so M ≤ V ≤ M_band. The proof in run
// then says a cell with E ≤ τ has V = M there, so the row Lemma 4 stops at
// and min(V(m,n), τ+1) are the scalar kernel's.
func (g *band) runWord(a, b string, from, mask int) int {
	m, n := len(a), len(b)
	left, width, d := g.left, g.width, g.d
	sat := int(g.sat)
	rows := g.words
	r := rows[(from-1)&mask]
	i := from
	// Anchored at column 1 while the band reaches column 0.
	for ; i <= min(m, left+1); i++ {
		r.step(eqMask(b, 0, min(width, n), a[i-1]))
		rows[i&mask] = r
		// Column i+Δ; at or left of column 0, E = |Δ| ≤ τ and the row goes on.
		if k := i + d - 1; k >= 0 && r.at(k) >= sat {
			return i
		}
	}
	// Sliding: bit k is column i−left+k, and column i+Δ is bit Δ+left.
	for dl := d + left; i <= m; i++ {
		off := i - left - 1
		r.base += int(r.hp&1) - int(r.hn&1)
		r.hp = r.hp>>1 | 1<<63
		r.hn >>= 1
		r.step(eqMask(b, off, min(width, n-off), a[i-1]))
		rows[i&mask] = r
		if r.at(dl) >= sat {
			return i
		}
	}
	return m + 1
}

// step advances r one row down: Myers' step over the row's equality mask
// eq, with +1 entering at bit 0 as the vertical delta of column anchor−1.
func (r *wordRow) step(eq uint64) {
	x := eq | r.hn
	xv := (eq&r.hp + r.hp) ^ r.hp | eq
	vp := r.hn | ^(xv | r.hp)
	vn := r.hp & xv
	vp = vp<<1 | 1
	vn <<= 1
	r.hp = vn | ^(x | vp)
	r.hn = vp & x
	r.base++
}

// eqMask returns a mask whose bit k, for k < cnt ≤ 64, is set when
// s[off+k] == c; off+cnt ≤ len(s). Bits from cnt up to the next multiple of
// 8 compare the bytes after the window, or are clear past the end of s.
// Eight bytes are compared per step by match8; a load that would run past
// the end of s takes the last eight bytes instead and shifts their mask.
func eqMask(s string, off, cnt int, c byte) uint64 {
	if len(s) < 8 {
		return eqShort(s, off, c)
	}
	bc := 0x0101010101010101 * uint64(c)
	var eq uint64
	for k := 0; k < cnt; k += 8 {
		p := min(off+k, len(s)-8)
		eq |= match8(load64(s, p)^bc) >> (off + k - p) << k
	}
	return eq
}

// eqShort is eqMask for a string shorter than eight bytes.
func eqShort(s string, off int, c byte) uint64 {
	var eq uint64
	for k := range len(s) - off {
		if s[off+k] == c {
			eq |= 1 << k
		}
	}
	return eq
}

// match8 returns the zero bytes of w as the bits of one byte: bit q is set
// when byte q of w is zero. The zero-byte test is the exact one (no borrow
// crosses a byte), and a multiply gathers the eight high bits: byte q's bit
// lands on bit 56+q and no two partial products overlap.
func match8(w uint64) uint64 {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	z := ^((w&lo7 + lo7) | w | lo7) // 0x80 in each zero byte
	return z >> 7 * 0x0102040810204080 >> 56
}

// load64 returns s[p:p+8] as a little-endian word.
func load64(s string, p int) uint64 {
	s = s[p : p+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// runCells is run for the scalar kernel.
func (g *band) runCells(a, b string, from, mask int) int {
	m, n := len(a), len(b)
	left, width, sat := g.left, g.width, g.sat
	dl := g.d + left // cell of column i+Δ
	stride := width + 1
	for i := from; i <= m; i++ {
		// Clip the row to columns 0..n.
		kLo := maxInt(0, left-i)
		kHi := minInt(width-1, n-i+left)
		prev := g.cells[((i-1)&mask)*stride:][:stride]
		cur := g.cells[(i&mask)*stride:][:stride]
		cur[width] = sat

		ai := a[i-1]
		lf := sat // left neighbour M(i,j−1)
		k := kLo
		if left >= i {
			// Column 0: M(i,0) = i.
			lf = min(int32(i), sat)
			cur[k] = lf
			k++
		}
		// Cell k is column j = i−left+k and compares a[i−1] with b[j−1];
		// its diagonal neighbour is prev[k], the one above it prev[k+1].
		diag := prev[k : kHi+2]
		out := cur[k : kHi+1]
		bs := b[i-left+k-1 : i-left+kHi]
		for x := range out {
			c := diag[x]
			if ai != bs[x] {
				c++
			}
			c = min(c, diag[x+1]+1, lf+1, sat)
			out[x] = c
			lf = c
		}
		if g.lengthAware {
			// Every E(i,j) exceeds τ: the one cell of run's proof.
			if k := max(dl, kLo); cur[k]+int32(k-dl) >= sat {
				return i
			}
		} else if slices.Min(cur[kLo:kHi+1]) >= sat { // every M(i,j) exceeds τ
			return i
		}
	}
	return m + 1
}

// result returns min(ed, τ+1) from row m of a finished run: M(m,n).
func (g *band) result(m, n, mask int) int {
	if g.word {
		r := &g.words[m&mask]
		return min(r.at(n-max(1, m-g.left)), int(g.sat))
	}
	return int(g.cells[(m&mask)*(g.width+1)+n-m+g.left])
}
