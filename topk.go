package passjoin

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"passjoin/internal/metrics"
	"passjoin/internal/verify"
)

// matchLess is the result order of Search, with or without QueryTopK:
// ascending distance, ties by corpus index.
func matchLess(a, b Match) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// sortMatches puts out in matchLess order.
func sortMatches(out []Match) {
	slices.SortFunc(out, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}

// matchMaxHeap is a max-heap on matchLess order — the root is the worst
// match retained, so it is the one displaced when a better match arrives.
type matchMaxHeap []Match

func (h matchMaxHeap) Len() int           { return len(h) }
func (h matchMaxHeap) Less(i, j int) bool { return matchLess(h[j], h[i]) }
func (h matchMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *matchMaxHeap) Push(x any)        { *h = append(*h, x.(Match)) }
func (h *matchMaxHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// topKMatches returns the k best matches of ms in matchLess order via a
// k-bounded max-heap: O(n log k) instead of the O(n log n) full sort, which
// matters when k is far below the match count. ms is consumed (reordered,
// possibly truncated in place).
func topKMatches(ms []Match, k int) []Match {
	if k <= 0 {
		return nil
	}
	if len(ms) <= k {
		sortMatches(ms)
		return ms
	}
	h := matchMaxHeap(ms[:k])
	heap.Init(&h)
	for _, m := range ms[k:] {
		if matchLess(m, h[0]) {
			h[0] = m
			heap.Fix(&h, 0)
		}
	}
	out := []Match(h)
	sortMatches(out)
	return out
}

// PairDist is a join result annotated with its exact edit distance.
type PairDist struct {
	R, S int
	Dist int
}

// TopK returns the k closest string pairs of strs by edit distance,
// without a caller-supplied threshold. Ties at the cutoff distance are
// broken by (R, S) order, so results are deterministic.
//
// This is the threshold-free variant discussed in the paper's related work
// (top-k similarity joins, Xiao et al. [24]), implemented on top of
// Pass-Join by progressively growing τ: the join runs at τ = 0, 1, 2, …
// until at least k pairs are found. Each run reuses the partition index
// machinery, so small-distance results arrive after only cheap rounds.
// WithStats receives the counters of every round added together.
func TopK(strs []string, k int, opts ...Option) ([]PairDist, error) {
	if k < 0 {
		return nil, fmt.Errorf("passjoin: negative k %d", k)
	}
	cfg, err := buildConfig(0, opts)
	if err != nil {
		return nil, err
	}
	if k == 0 || len(strs) < 2 {
		return nil, nil
	}
	// The loop ends by τ = the longest length, where every pair is in.
	k = min(k, len(strs)*(len(strs)-1)/2)
	var sum metrics.Stats
	for tau := 0; ; tau++ {
		pairs, err := SelfJoin(strs, tau, opts...)
		if err != nil {
			return nil, err
		}
		sum.Add((*metrics.Stats)(cfg.stats)) // each round's join zeroes the sink first
		// At threshold tau every pair with ed <= tau is present. If we have
		// k of them, the k-th smallest distance is <= tau and no missing
		// pair (all with ed > tau) can displace the chosen ones.
		if len(pairs) < k {
			continue
		}
		if cfg.stats != nil {
			*cfg.stats = Stats(sum)
		}
		var ver verify.Verifier
		out := make([]PairDist, len(pairs))
		for i, p := range pairs {
			out[i] = PairDist{R: p.R, S: p.S, Dist: ver.Dist(strs[p.R], strs[p.S], tau)}
		}
		// pairs ascend by (R, S), so a stable sort by distance breaks ties
		// in that order.
		slices.SortStableFunc(out, func(a, b PairDist) int { return cmp.Compare(a.Dist, b.Dist) })
		return out[:k], nil
	}
}
