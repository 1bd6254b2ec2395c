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
// the join early.
//
// With WithParallelism(n <= 1) — the default — the join runs the paper's
// sequential sliding-window scan: pairs arrive by non-decreasing length of
// the longer string, in no particular order within a length (the scan
// probes a run of equal-length strings at a time), and index memory stays
// bounded by the (τ+1)² live length groups. The scan uses at most two
// goroutines — its index lookups and signature filter on a helper goroutine,
// verification and yield on the calling goroutine — and GOMAXPROCS=1 keeps it
// on one core. With WithParallelism(n > 1) the probe pass
// fans out over n workers that feed a bounded channel (see
// SelfJoinEachCtx): pairs then arrive in no deterministic order, but
// yield is still invoked from the calling goroutine only, so it needs no
// synchronization in either mode.
func SelfJoinEach(strs []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			if o.Parallel > 1 {
				return core.SelfJoinStream(context.Background(), strs, o, emit)
			}
			return core.SelfJoinFunc(strs, o, emit)
		})
}

// JoinEach streams R×S join results to yield as they are found. yield's r
// indexes rset and s indexes sset; returning false stops the join early.
// Parallelism and ordering semantics match SelfJoinEach: by non-decreasing
// length of the rset string by default, n-worker fan-out with arbitrary
// order under WithParallelism(n > 1), yield always on the calling goroutine.
func JoinEach(rset, sset []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			if o.Parallel > 1 {
				return core.JoinStream(context.Background(), rset, sset, o, emit)
			}
			return core.JoinFunc(rset, sset, o, emit)
		})
}

// SelfJoinEachCtx is the context-aware form of SelfJoinEach, built for
// long bulk joins that must be cancellable (server request handling,
// deadline-bounded jobs). It always runs the index-once/probe-stream
// engine: the segment index is built over all of strs (full residency —
// no sliding-window eviction), frozen, and probed by WithParallelism(n)
// workers (default 1) that emit pairs through a bounded channel with
// backpressure, so the result set is never materialized.
//
// yield runs on the calling goroutine; with n > 1 pairs arrive in no
// deterministic order. yield returning false stops the join early and
// returns nil. When ctx is cancelled the probe workers stop promptly
// (they check between batches: every 64 strings' worth of one index
// lookup, not once per string) and the error is ctx.Err().
func SelfJoinEachCtx(ctx context.Context, strs []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			return core.SelfJoinStream(ctx, strs, o, emit)
		})
}

// JoinEachCtx is the context-aware form of JoinEach: sset is indexed once
// and frozen, then WithParallelism(n) workers stream the rset probes.
// Cancellation, ordering and early-stop semantics match SelfJoinEachCtx.
func JoinEachCtx(ctx context.Context, rset, sset []string, tau int, yield func(r, s int) bool, opts ...Option) error {
	return each(tau, yield, opts,
		func(o core.Options, emit func(core.Pair) bool) error {
			return core.JoinStream(ctx, rset, sset, o, emit)
		})
}
