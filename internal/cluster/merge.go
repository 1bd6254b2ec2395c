package cluster

import "sort"

// Hit is one search match on the cluster wire and the serving layer's
// Match (an alias), so a coordinator response built from merged Hits is
// byte-identical to a single-node daemon's response over the union
// corpus.
type Hit struct {
	ID     int    `json:"id"`
	String string `json:"string"`
	Dist   int    `json:"dist"`
}

// hitLess is the result order every searcher in this repo uses:
// ascending distance, ties by document id.
func hitLess(a, b Hit) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// MergeHits merges per-member result lists into the single-node answer
// over the union corpus: hits sharing a document id are deduplicated
// keeping the smaller (dist, id) — a document transiently present on
// two members mid-rebalance must count once, never twice — the merged
// set is ordered by (dist, id), and k > 0 keeps only the k nearest. Every
// member already truncates at the same k, so the merged set holds at most
// members·k hits and a full sort is the selection. Always returns a
// non-nil slice: an empty result must encode as [], exactly like a
// member's.
func MergeHits(parts [][]Hit, k int) []Hit {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	merged := make([]Hit, 0, total)
	byID := make(map[int]int, total) // id -> index in merged
	for _, p := range parts {
		for _, h := range p {
			if at, dup := byID[h.ID]; dup {
				if hitLess(h, merged[at]) {
					merged[at] = h
				}
				continue
			}
			byID[h.ID] = len(merged)
			merged = append(merged, h)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return hitLess(merged[i], merged[j]) })
	if k > 0 && len(merged) > k {
		merged = merged[:k]
	}
	return merged
}
