package core

import (
	"context"
	"fmt"
)

// SelfJoin finds every unordered pair of strings in strs whose edit
// distance is at most opt.Tau. Result pairs carry original input indices
// with R < S; the slice is sorted lexicographically. It runs SelfJoinEach
// and sorts what it delivers.
func SelfJoin(strs []string, opt Options) ([]Pair, error) {
	return collect(func(emit func(Pair) bool) error {
		return SelfJoinEach(context.Background(), strs, opt, emit)
	})
}

// collect runs a streaming join to completion and returns its pairs in
// canonical order.
func collect(join func(emit func(Pair) bool) error) ([]Pair, error) {
	var out []Pair
	err := join(func(p Pair) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	SortPairs(out)
	return out, nil
}

// SelfJoinEach streams the self-join results to emit as they are found,
// without materializing the result set, on the workers opt.Parallel asks
// for (joinPlan.run). emit is always called from the calling goroutine, so
// it needs no synchronization. Pairs come by non-decreasing length of the
// longer string, in no particular order within a length — the order, and
// every counter, of a scan on one goroutine, at every parallelism. emit
// returning false stops the join early and returns nil, the scan having
// counted all of the chunk that held the last pair delivered, and none
// after it; a ctx cancellation stops it within a batch of lookups and
// returns ctx.Err(). A nil ctx means Background.
func SelfJoinEach(ctx context.Context, strs []string, opt Options, emit func(Pair) bool) error {
	ctx, err := begin(ctx, opt, emit)
	if err != nil {
		return err
	}
	ref, orig, off, sig, err := sortRecs(strs, sortWorkers(opt.Parallel), true)
	if err != nil {
		return err
	}
	j := &joinPlan{
		ref: ref, off: off, sig: sig,
		side: ref, chunks: chunksOf(off), self: true,
		pair: func(cur int, rid int32) Pair { return normalize(orig[rid], orig[cur]) },
		// above is 0: the window of §3.2, the groups of lengths [|s|−τ, |s|],
		// bulk-built on entry — group |s| ahead of the strings it indexes,
		// which the lookup stage's cut at a string's own id hides from
		// their predecessors.
	}
	return j.run(ctx, opt, emit)
}

// begin checks the arguments every streaming join shares, and returns the
// ctx to run under: Background for a nil one. A ctx that is already
// cancelled stops the join before it sorts anything.
func begin(ctx context.Context, opt Options, emit func(Pair) bool) (context.Context, error) {
	if opt.Tau < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if emit == nil {
		return nil, fmt.Errorf("core: nil emit callback")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx, ctx.Err()
}
