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
	return dispatch(tau, opts, func(o core.Options) error {
		return run(o, func(p core.Pair) bool { return yield(int(p.R), int(p.S)) })
	})
}

// SelfJoinEach streams self-join results to yield as they are found,
// without materializing the result set — useful when the output is large
// or when only the first few matches matter. yield returning false stops
// the join early. It is SelfJoinEachCtx under context.Background().
//
// The join runs the paper's sliding-window scan: pairs arrive by
// non-decreasing length of the longer string, in no particular order within
// a length (the scan probes a run of equal-length strings at a time), and
// index memory stays bounded by the (τ+1)² live inverted indices of the
// window. Those runs are looked up and verified on
// min(max(n, 2), GOMAXPROCS) workers for WithParallelism(n) — by default the
// calling goroutine and one helper (none at GOMAXPROCS=1) — and a run's
// pairs are handed to yield on the calling goroutine once the run is
// verified, in the scan's order: the same pairs in the same order at every
// parallelism and every GOMAXPROCS. yield therefore needs no
// synchronization, and only GOMAXPROCS=1 keeps the join on one core.
func SelfJoinEach(strs []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return SelfJoinEachCtx(context.Background(), strs, tau, yield, opts...)
}

// JoinEach streams R×S join results to yield as they are found. yield's r
// indexes rset and s indexes sset; returning false stops the join early.
// Parallelism and ordering semantics match SelfJoinEach: pairs arrive by
// non-decreasing length of the rset string, in the same order at every
// parallelism, and yield always runs on the calling goroutine.
func JoinEach(rset, sset []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return JoinEachCtx(context.Background(), rset, sset, tau, yield, opts...)
}

// SelfJoinEachCtx is the context-aware form of SelfJoinEach, built for
// long bulk joins that must be cancellable (server request handling,
// deadline-bounded jobs). Its workers, ordering and goroutines are
// SelfJoinEach's.
//
// yield returning false stops the join early and returns nil. When ctx is
// cancelled the join stops promptly — the scan's workers check between
// batches of lookups (64 strings' worth of one index
// lookup), not once per string — and the error is ctx.Err().
func SelfJoinEachCtx(ctx context.Context, strs []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			return core.SelfJoinEach(ctx, strs, o, emit)
		})
}

// JoinEachCtx is the context-aware form of JoinEach. Cancellation,
// workers, ordering and early-stop semantics match SelfJoinEachCtx.
func JoinEachCtx(ctx context.Context, rset, sset []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			return core.JoinEach(ctx, rset, sset, o, emit)
		})
}
