package engine

import (
	"passjoin/internal/core"
	"passjoin/internal/metrics"
)

// RSJoin answers an R×S join with a self-join-only algorithm via the
// disjoint-union reduction: self-join the concatenation rset‖sset and
// keep exactly the pairs that cross the boundary. Self-join pairs carry
// R < S, so a cross pair always has its rset element first; remapping the
// S side by −len(rset) restores the caller's indexing, and the
// algorithm's (R, S)-sorted output stays sorted under the shift. The
// reduction is exact but also computes the intra-R and intra-S pairs it
// then discards, so it costs more than a native R×S join — Pass-Join,
// which has one, keeps its native path in the public API.
func RSJoin(selfJoin SelfJoinFunc, rset, sset []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
	union := make([]string, 0, len(rset)+len(sset))
	union = append(union, rset...)
	union = append(union, sset...)
	pairs, err := selfJoin(union, tau, st)
	if err != nil {
		return nil, err
	}
	n := int32(len(rset))
	out := pairs[:0]
	for _, p := range pairs {
		if p.R < n && p.S >= n {
			out = append(out, core.Pair{R: p.R, S: p.S - n})
		}
	}
	return out, nil
}
