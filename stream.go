package passjoin

import (
	"context"
	"errors"

	"passjoin/internal/core"
)

var errNilYield = errors.New("passjoin: nil yield callback")

// each is dispatch for the streaming entry points: run streams its pairs
// through emit as it finds them, and yield returning false stops it.
func each(tau int, yield func(r, s int) bool, opts []Option,
	run func(o core.Options, emit func(core.Pair) bool) error) error {
	if yield == nil {
		return errNilYield
	}
	_, err := dispatch(tau, opts, func(o core.Options) ([]core.Pair, error) {
		return nil, run(o, func(p core.Pair) bool { return yield(int(p.R), int(p.S)) })
	})
	return err
}

// SelfJoinEach streams self-join results to yield as they are found,
// without materializing the result set — useful when the output is large
// or when only the first few matches matter. yield returning false stops
// the join early. It is SelfJoinEachCtx under context.Background().
//
// With WithParallelism(n <= 1) — the default — the join runs the paper's
// sequential sliding-window scan: pairs arrive by non-decreasing length of
// the longer string, in no particular order within a length (the scan
// probes a run of equal-length strings at a time), and index memory stays
// bounded by the (τ+1)² live length groups. Those runs are looked up and
// verified on the calling goroutine and one helper (none at GOMAXPROCS=1),
// and a run's pairs are handed to yield on the calling goroutine once the
// run is verified, in the scan's order — the same pairs in the same order at
// every GOMAXPROCS — and only GOMAXPROCS=1 keeps it on one core.
// With WithParallelism(n > 1) the whole corpus is indexed once
// and the probe pass fans out over n workers that feed a bounded channel:
// pairs then arrive in no deterministic order, but yield is still invoked
// from the calling goroutine only, so it needs no synchronization in either
// mode.
func SelfJoinEach(strs []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return SelfJoinEachCtx(context.Background(), strs, tau, yield, opts...)
}

// JoinEach streams R×S join results to yield as they are found. yield's r
// indexes rset and s indexes sset; returning false stops the join early.
// Parallelism and ordering semantics match SelfJoinEach: by non-decreasing
// length of the rset string by default, n-worker fan-out with arbitrary
// order under WithParallelism(n > 1), yield always on the calling goroutine.
func JoinEach(rset, sset []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return JoinEachCtx(context.Background(), rset, sset, tau, yield, opts...)
}

// SelfJoinEachCtx is the context-aware form of SelfJoinEach, built for
// long bulk joins that must be cancellable (server request handling,
// deadline-bounded jobs). Its modes, ordering and goroutines are
// SelfJoinEach's: the sliding-window scan by default, n index-once probe
// workers under WithParallelism(n > 1).
//
// yield returning false stops the join early and returns nil. When ctx is
// cancelled the join stops promptly — the scan's goroutines and the probe
// workers check between batches of lookups (64 strings' worth of one index
// lookup), not once per string — and the error is ctx.Err().
func SelfJoinEachCtx(ctx context.Context, strs []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			return core.SelfJoinEach(ctx, strs, o, emit)
		})
}

// JoinEachCtx is the context-aware form of JoinEach. Cancellation, modes,
// ordering and early-stop semantics match SelfJoinEachCtx.
func JoinEachCtx(ctx context.Context, rset, sset []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			return core.JoinEach(ctx, rset, sset, o, emit)
		})
}
