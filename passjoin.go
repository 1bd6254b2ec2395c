package passjoin

import (
	"cmp"
	"context"
	"slices"

	"passjoin/internal/core"
	"passjoin/internal/verify"
)

// Pair is one join result: indices into the input slice(s). For SelfJoin,
// R < S and both index the single input; for Join, R indexes the first
// input and S the second.
type Pair struct {
	R, S int
}

// SelfJoin returns every unordered pair of strings in strs whose edit
// distance is at most tau. The result is exact (Theorem 6 of the paper:
// complete and correct), sorted lexicographically by (R, S), with R < S.
//
// Strings are treated as byte sequences; for Unicode text the threshold
// counts byte edits, so normalize or transliterate first if rune-level
// distances are required.
func SelfJoin(strs []string, tau int, opts ...Option) ([]Pair, error) {
	return collect(tau, opts, func(o core.Options, emit func(core.Pair) bool) error {
		return core.SelfJoinEach(context.Background(), strs, o, emit)
	})
}

// Join returns every pair (r, s) from rset × sset whose edit distance is
// at most tau. Pair.R indexes rset and Pair.S indexes sset; the result is
// exact and sorted.
func Join(rset, sset []string, tau int, opts ...Option) ([]Pair, error) {
	return collect(tau, opts, func(o core.Options, emit func(core.Pair) bool) error {
		return core.JoinEach(context.Background(), rset, sset, o, emit)
	})
}

// dispatch is the one way into a join, under all six entry points: build
// the configuration and run the join on the core options it resolves to,
// which write the run's counters into the attached Stats.
func dispatch(tau int, opts []Option, run func(o core.Options) error) error {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return err
	}
	return run(cfg.coreOptions(tau))
}

// maxCollectBlock is the most pairs a block of collect holds: 64 KiB.
const maxCollectBlock = 8192

// collect runs a streaming join to completion and returns its pairs,
// sorted. It keeps them as they come in blocks that it never copies — each
// as large as all the blocks before it, from 256 pairs to maxCollectBlock —
// and makes the result once their number is known, so that what it
// allocates is the result and about half as much again.
func collect(tau int, opts []Option, run func(o core.Options, emit func(core.Pair) bool) error) ([]Pair, error) {
	var blocks [][]core.Pair
	n := 0
	err := dispatch(tau, opts, func(o core.Options) error {
		return run(o, func(p core.Pair) bool {
			if n == 0 || len(blocks[len(blocks)-1]) == cap(blocks[len(blocks)-1]) {
				blocks = append(blocks, make([]core.Pair, 0, min(max(n, 256), maxCollectBlock)))
			}
			b := &blocks[len(blocks)-1]
			*b = append(*b, p)
			n++
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	out := make([]Pair, 0, n)
	for _, b := range blocks {
		for _, p := range b {
			out = append(out, Pair{R: int(p.R), S: int(p.S)})
		}
	}
	slices.SortFunc(out, func(a, b Pair) int { return cmp.Compare(pairKey(a), pairKey(b)) })
	return out, nil
}

// pairKey packs p, whose indices fit in 32 bits, into one word that orders
// as (R, S).
func pairKey(p Pair) uint64 {
	return uint64(p.R)<<32 | uint64(p.S)
}

// EditDistance returns the exact (unbounded) Levenshtein distance between
// a and b, counting byte-level insertions, deletions and substitutions.
func EditDistance(a, b string) int {
	return verify.EditDistance(a, b)
}

// Within reports whether ed(a, b) <= tau using the paper's length-aware
// banded verification — O((τ+1)·min(|a|,|b|)) time instead of the full
// quadratic dynamic program. tau must be non-negative.
func Within(a, b string, tau int) bool {
	return verify.Within(a, b, tau)
}
