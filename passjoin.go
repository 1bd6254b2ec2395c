package passjoin

import (
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
	pairs, err := dispatch(tau, opts, func(o core.Options) ([]core.Pair, error) { return core.SelfJoin(strs, o) })
	if err != nil {
		return nil, err
	}
	return convert(pairs), nil
}

// Join returns every pair (r, s) from rset × sset whose edit distance is
// at most tau. Pair.R indexes rset and Pair.S indexes sset; the result is
// exact and sorted.
func Join(rset, sset []string, tau int, opts ...Option) ([]Pair, error) {
	pairs, err := dispatch(tau, opts, func(o core.Options) ([]core.Pair, error) { return core.Join(rset, sset, o) })
	if err != nil {
		return nil, err
	}
	return convert(pairs), nil
}

// dispatch is the one way into a join, under all six entry points: build
// the configuration and run the join on the core options it resolves to,
// which write the run's counters into the attached Stats.
func dispatch(tau int, opts []Option, run func(o core.Options) ([]core.Pair, error)) ([]core.Pair, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	return run(cfg.coreOptions(tau))
}

func convert(ps []core.Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{R: int(p.R), S: int(p.S)}
	}
	return out
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
