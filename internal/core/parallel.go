package core

import "context"

// parallelSelfJoin implements the index-once/probe-parallel mode behind
// SelfJoin when opt.Parallel > 1: it drains SelfJoinStream into a slice
// and canonicalizes the order. Building the complete segment index (no
// eviction) trades the sequential mode's O((τ+1)²) live-index bound for
// full index residency, buying near-linear probe speedup on multi-core
// machines; an extension beyond the paper (which is single-threaded).
// Results and error semantics match the sequential SelfJoin exactly.
func parallelSelfJoin(strs []string, opt Options) ([]Pair, error) {
	var out []Pair
	err := SelfJoinStream(context.Background(), strs, opt, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	SortPairs(out)
	return out, nil
}

// parallelJoin is the R≠S counterpart of parallelSelfJoin: index all of
// sset once, probe every rset string from opt.Parallel workers via
// JoinStream, then sort. Results and error semantics match the sequential
// Join exactly.
func parallelJoin(rset, sset []string, opt Options) ([]Pair, error) {
	var out []Pair
	err := JoinStream(context.Background(), rset, sset, opt, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	SortPairs(out)
	return out, nil
}
