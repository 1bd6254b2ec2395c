package core

import "context"

// Join finds every pair (r, s) in rset × sset with ed(r, s) <= opt.Tau.
// Result pairs carry original input indices (Pair.R into rset, Pair.S into
// sset); the slice is sorted lexicographically. It runs JoinEach and sorts
// what it delivers.
func Join(rset, sset []string, opt Options) ([]Pair, error) {
	return collect(func(emit func(Pair) bool) error {
		return JoinEach(context.Background(), rset, sset, opt, emit)
	})
}

// JoinEach streams R×S join results to emit as they are found. Per §3.2,
// the strings of sset are partitioned and indexed; the strings of rset are
// scanned in (length, content) order, a chunk of one length at a time, and
// probe the indexed lengths in [|r|−τ, |r|+τ]. The workers, the goroutine
// emit runs on, early stop and cancellation are SelfJoinEach's; pairs come
// by non-decreasing length of the rset string. Its index is incremental: an sset length group is built once the
// scan reaches probes long enough to see it, and groups below the scan
// window are released, their tables going to the groups built after them
// (index.Window), so at most (τ+1)·(2τ+1) inverted indices are live.
func JoinEach(ctx context.Context, rset, sset []string, opt Options, emit func(Pair) bool) error {
	ctx, err := begin(ctx, opt, emit)
	if err != nil {
		return err
	}
	workers := sortWorkers(opt.Parallel)
	// rset is only probed with: ordered, not copied.
	rRef, rOrig, rOff, _, err := sortRecs(rset, workers, false)
	if err != nil {
		return err
	}
	ref, orig, off, sig, err := sortRecs(sset, workers, true)
	if err != nil {
		return err
	}
	j := &joinPlan{
		ref: ref, off: off, sig: sig,
		side: rRef, chunks: chunksOf(rOff),
		pair: func(cur int, sid int32) Pair { return Pair{R: rOrig[cur], S: orig[sid]} },
		// No group is as long as len(off), and l+τ may wrap.
		above: min(opt.Tau, len(off)),
	}
	return j.run(ctx, opt, emit)
}
