package verify

import "passjoin/internal/metrics"

// The banded verifiers as they stood before both moved onto the one band
// kernel, kept verbatim as the oracle of the kernel tests: []int rows, an
// inf marker outside the band, one hand-written row loop each. The kernel
// must return what these return and count what these count.

type refVerifier struct {
	prev, cur []int
	Stats     *metrics.Stats
}

func (v *refVerifier) Dist(a, b string, tau int) int      { return v.banded(a, b, tau, true) }
func (v *refVerifier) DistNaive(a, b string, tau int) int { return v.banded(a, b, tau, false) }

func (v *refVerifier) banded(a, b string, tau int, lengthAware bool) int {
	if tau < 0 {
		panic("verify: negative threshold")
	}
	m, n := len(a), len(b)
	d := n - m
	if abs(d) > tau {
		return tau + 1
	}
	if m == 0 || n == 0 {
		// Distance is the length of the other string, already known ≤ tau.
		return maxInt(m, n)
	}

	var left, right int
	if lengthAware {
		left = (tau - d) / 2
		right = (tau + d) / 2
	} else {
		left, right = tau, tau
	}
	width := left + right + 1
	if cap(v.prev) < width {
		v.prev = make([]int, width)
		v.cur = make([]int, width)
	}
	prev := v.prev[:width]
	cur := v.cur[:width]

	const inf = 1 << 29
	cells := 0

	// Row 0: M(0,j) = j for j in [0, right].
	for k := 0; k < width; k++ {
		// Row 0 band is j in [-left, right]; only j >= 0 is real.
		j := k - left
		if j >= 0 && j <= n {
			prev[k] = j
		} else {
			prev[k] = inf
		}
	}

	for i := 1; i <= m; i++ {
		lo := maxInt(0, i-left)
		hi := minInt(n, i+right)
		if lo > hi {
			// Band fell off the matrix; cannot happen while |d| <= tau, but
			// keep the guard for safety.
			return tau + 1
		}
		ai := a[i-1]
		rowMin := inf
		for k := 0; k < width; k++ {
			j := i - left + k
			if j < lo || j > hi {
				cur[k] = inf
				continue
			}
			best := inf
			if j == 0 {
				best = i
			} else {
				// Diagonal: M(i-1, j-1) is previous row at offset
				// (j-1)-((i-1)-left) = k.
				if dg := prev[k]; dg < inf {
					cost := dg
					if ai != b[j-1] {
						cost++
					}
					if cost < best {
						best = cost
					}
				}
				// Left: M(i, j-1) at offset k-1 in current row.
				if k-1 >= 0 {
					if lf := cur[k-1]; lf < inf && lf+1 < best {
						best = lf + 1
					}
				}
			}
			// Up: M(i-1, j) at offset j-((i-1)-left) = k+1.
			if k+1 < width {
				if up := prev[k+1]; up < inf && up+1 < best {
					best = up + 1
				}
			}
			cur[k] = best
			cells++
			var e int
			if lengthAware {
				e = best + abs((n-j)-(m-i))
			} else {
				e = best
			}
			if e < rowMin {
				rowMin = e
			}
		}
		if rowMin > tau {
			if v.Stats != nil {
				v.Stats.DPCells += int64(cells)
				v.Stats.EarlyTerms++
			}
			return tau + 1
		}
		prev, cur = cur, prev
	}
	if v.Stats != nil {
		v.Stats.DPCells += int64(cells)
	}
	// Answer is M(m, n), stored in prev (after the final swap) at offset
	// n - (m - left).
	res := prev[n-(m-left)]
	if res > tau {
		return tau + 1
	}
	return res
}

type refIncremental struct {
	t   string // fixed side (columns)
	tau int
	m   int // required source length (rows); set on first Dist after Reset

	left, right, width int

	rows     [][]int // rows[i] is DP row i (width cells), rows[0] is the base row
	computed int     // rows[0..computed] are valid for prev
	earlyRow int     // row index where the last run terminated early, -1 if none
	prev     string  // previous source

	// Stats, when non-nil, receives DPCells/EarlyTerms/SharedRows counters.
	Stats *metrics.Stats
}

// Reset fixes the target string and threshold for subsequent Dist calls and
// invalidates any cached rows.
func (v *refIncremental) Reset(t string, tau int) {
	if tau < 0 {
		panic("verify: negative threshold")
	}
	v.t = t
	v.tau = tau
	v.m = -1
	v.computed = -1
	v.earlyRow = -1
	v.prev = ""
}

// Dist returns min(ed(r, t), tau+1) where t and tau were fixed by Reset.
// Sources of differing lengths invalidate the cache (the band geometry and
// the early-termination bound depend on |r|) but remain correct.
func (v *refIncremental) Dist(r string) int {
	tau := v.tau
	m, n := len(r), len(v.t)
	d := n - m
	if abs(d) > tau {
		return tau + 1
	}
	if m == 0 || n == 0 {
		return maxInt(m, n)
	}
	if m != v.m {
		v.setup(m, n)
	}

	// Resume depth: rows 0..c are valid, where c is bounded by the common
	// prefix with the previous source and by how many rows were computed.
	c := 0
	if v.computed >= 0 {
		lcp := commonPrefix(v.prev, r)
		c = minInt(lcp, v.computed)
	}
	if v.Stats != nil {
		v.Stats.SharedRows += int64(c)
	}
	v.prev = r
	if v.earlyRow >= 0 && v.earlyRow <= c {
		// A previous source with this exact prefix terminated early at a row
		// we are reusing; the verdict only depends on that prefix.
		v.computed = v.earlyRow
		return tau + 1
	}

	const inf = 1 << 29
	left, right, width := v.left, v.right, v.width
	cells := 0
	for i := c + 1; i <= m; i++ {
		lo := maxInt(0, i-left)
		hi := minInt(n, i+right)
		if lo > hi {
			v.computed = i - 1
			v.earlyRow = -1
			return tau + 1
		}
		prevRow := v.rows[i-1]
		curRow := v.rows[i]
		ri := r[i-1]
		rowMin := inf
		for k := 0; k < width; k++ {
			j := i - left + k
			if j < lo || j > hi {
				curRow[k] = inf
				continue
			}
			best := inf
			if j == 0 {
				best = i
			} else {
				if dg := prevRow[k]; dg < inf {
					cost := dg
					if ri != v.t[j-1] {
						cost++
					}
					if cost < best {
						best = cost
					}
				}
				if k-1 >= 0 {
					if lf := curRow[k-1]; lf < inf && lf+1 < best {
						best = lf + 1
					}
				}
			}
			if k+1 < width {
				if up := prevRow[k+1]; up < inf && up+1 < best {
					best = up + 1
				}
			}
			curRow[k] = best
			cells++
			if e := best + abs((n-j)-(m-i)); e < rowMin {
				rowMin = e
			}
		}
		if rowMin > tau {
			v.computed = i
			v.earlyRow = i
			if v.Stats != nil {
				v.Stats.DPCells += int64(cells)
				v.Stats.EarlyTerms++
			}
			return tau + 1
		}
	}
	v.computed = m
	v.earlyRow = -1
	if v.Stats != nil {
		v.Stats.DPCells += int64(cells)
	}
	res := v.rows[m][n-(m-left)]
	if res > tau {
		return tau + 1
	}
	return res
}

// setup (re)initializes band geometry and the base row for sources of
// length m against the fixed target of length n.
func (v *refIncremental) setup(m, n int) {
	tau := v.tau
	d := n - m
	v.m = m
	v.left = (tau - d) / 2
	v.right = (tau + d) / 2
	v.width = v.left + v.right + 1
	v.computed = -1
	v.earlyRow = -1
	v.prev = ""

	if cap(v.rows) < m+1 {
		rows := make([][]int, m+1)
		copy(rows, v.rows)
		v.rows = rows
	}
	v.rows = v.rows[:m+1]
	for i := range v.rows {
		if cap(v.rows[i]) < v.width {
			v.rows[i] = make([]int, v.width)
		} else {
			v.rows[i] = v.rows[i][:v.width]
		}
	}

	const inf = 1 << 29
	for k := 0; k < v.width; k++ {
		j := k - v.left
		if j >= 0 && j <= n {
			v.rows[0][k] = j
		} else {
			v.rows[0][k] = inf
		}
	}
	v.computed = 0
}
