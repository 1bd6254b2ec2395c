package passjoin

import (
	"context"

	"passjoin/internal/core"
	"passjoin/internal/engine"
	"passjoin/internal/metrics"
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
//
// WithEngine swaps the algorithm for one of the paper's baselines; the
// result set is identical for every engine.
func SelfJoin(strs []string, tau int, opts ...Option) ([]Pair, error) {
	pairs, err := dispatch(context.Background(), tau, opts, altSelf(strs, tau),
		func(o core.Options) ([]core.Pair, error) { return core.SelfJoin(strs, o) })
	if err != nil {
		return nil, err
	}
	return convert(pairs), nil
}

// Join returns every pair (r, s) from rset × sset whose edit distance is
// at most tau. Pair.R indexes rset and Pair.S indexes sset; the result is
// exact and sorted.
//
// WithEngine applies here too: engines other than "passjoin" answer the
// R×S join by self-joining the concatenated corpus and keeping the
// cross-boundary pairs (exact, but costlier than Pass-Join's native R×S
// path — see internal/engine.RSJoin).
func Join(rset, sset []string, tau int, opts ...Option) ([]Pair, error) {
	pairs, err := dispatch(context.Background(), tau, opts, altRS(rset, sset, tau),
		func(o core.Options) ([]core.Pair, error) { return core.Join(rset, sset, o) })
	if err != nil {
		return nil, err
	}
	return convert(pairs), nil
}

// altRun runs a join on a registry baseline, given the baseline's
// self-join and the counter sink of the call.
type altRun func(selfJoin engine.SelfJoinFunc, st *metrics.Stats) ([]core.Pair, error)

func altSelf(strs []string, tau int) altRun {
	return func(selfJoin engine.SelfJoinFunc, st *metrics.Stats) ([]core.Pair, error) {
		return selfJoin(strs, tau, st)
	}
}

func altRS(rset, sset []string, tau int) altRun {
	return func(selfJoin engine.SelfJoinFunc, st *metrics.Stats) ([]core.Pair, error) {
		return engine.RSJoin(selfJoin, rset, sset, tau, st)
	}
}

// dispatch is the one way into a join, under all six entry points: build
// the configuration, resolve the engine name, run native — the Pass-Join
// path, which honors every option — or alt, a baseline that materializes
// its pair set and ignores the other join options, then publish the run's
// counters and the engine's name on the attached Stats.
//
// No baseline watches a context, so under a cancellable ctx alt runs on a
// helper goroutine and cancellation returns ctx.Err() promptly; the
// abandoned run finishes in the background and its result is discarded.
func dispatch(ctx context.Context, tau int, opts []Option, alt altRun,
	native func(o core.Options) ([]core.Pair, error)) ([]core.Pair, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	e, err := engine.Get(cfg.engine)
	if err != nil {
		return nil, err
	}
	cfg.stats.setEngine(e.Name())
	o := cfg.coreOptions(tau)
	var pairs []core.Pair
	switch {
	case e.Name() == engine.Default:
		pairs, err = native(o)
	case ctx.Done() == nil:
		pairs, err = alt(e.SelfJoin, o.Stats)
	default:
		type result struct {
			pairs []core.Pair
			err   error
		}
		ch := make(chan result, 1)
		go func() {
			pairs, err := alt(e.SelfJoin, o.Stats)
			ch <- result{pairs, err}
		}()
		select {
		case <-ctx.Done():
			return nil, ctx.Err() // the abandoned run still writes its counters
		case res := <-ch:
			pairs, err = res.pairs, res.err
		}
	}
	cfg.stats.fill()
	return pairs, err
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
