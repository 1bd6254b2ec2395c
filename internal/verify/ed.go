// Package verify implements the edit-distance verification algorithms of
// Pass-Join (§5): the textbook dynamic program (reference), the naive banded
// verifier that computes 2τ+1 cells per row with prefix pruning, the
// length-aware verifier that computes only τ+1 cells per row and terminates
// early on expected edit distances, and an incremental verifier that shares
// DP rows across strings with common prefixes (§5.3).
//
// All verifiers operate on bytes. Thresholded verifiers return
// min(ed(a,b), tau+1), so a return value of tau+1 means "not similar".
package verify

// EditDistance returns the exact Levenshtein distance between a and b using
// the full O(|a|·|b|) dynamic program. It is the reference implementation
// used by tests and by callers that need unbounded distances.
func EditDistance(a, b string) int {
	if a == b {
		return 0
	}
	m, n := len(a), len(b)
	if m == 0 {
		return n
	}
	if n == 0 {
		return m
	}
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= n; j++ {
			d := prev[j-1]
			if ai != b[j-1] {
				d++
			}
			if v := prev[j] + 1; v < d {
				d = v
			}
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// Within reports whether ed(a,b) <= tau, using the length-aware banded
// verifier. tau must be non-negative.
func Within(a, b string, tau int) bool {
	var v Verifier
	return v.Dist(a, b, tau) <= tau
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
