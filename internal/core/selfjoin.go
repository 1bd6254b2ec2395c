package core

import (
	"context"
	"fmt"

	"passjoin/internal/index"
)

// SelfJoin finds every unordered pair of strings in strs whose edit
// distance is at most opt.Tau. Result pairs carry original input indices
// with R < S; the slice is sorted lexicographically. opt.Parallel > 1
// selects the index-once/probe-parallel mode of SelfJoinStream — full
// index residency instead of the sliding window's O((τ+1)²) live groups,
// an extension beyond the single-threaded paper — with the same results.
func SelfJoin(strs []string, opt Options) ([]Pair, error) {
	return collect(func(emit func(Pair) bool) error {
		if opt.Parallel > 1 {
			return SelfJoinStream(context.Background(), strs, opt, emit)
		}
		return SelfJoinFunc(strs, opt, emit)
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

// SelfJoinFunc streams the self-join results to emit as they are found —
// by non-decreasing length of the longer string, in no particular order
// within a length — without materializing the result set. emit returning
// false stops the join early. opt.Parallel is ignored: the scan is the
// sequential one of §3.2, on at most two goroutines — the index lookups and
// the signature filter on one of its own, verification and emit on the
// caller's — so emit needs no synchronization, and the pairs, their order
// and every counter are those of a scan on one goroutine. At GOMAXPROCS=1
// the two take turns on one core.
func SelfJoinFunc(strs []string, opt Options, emit func(Pair) bool) error {
	if opt.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if emit == nil {
		return fmt.Errorf("core: nil emit callback")
	}
	ref, orig, off, sig, err := sortRecs(strs, 1, true)
	if err != nil {
		return err
	}
	tau := opt.Tau
	st := opt.Stats
	win, err := index.NewWindow(ref, off, tau)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}
	p := newProber(tau, opt.Selection, opt.Verification, st, nil, win.Frozen(), ref, sig)
	j := newBlockJoin(p, off, true)
	var results int64
	p.emit = func(rid, _ int32) bool {
		results++
		return emit(normalize(orig[rid], orig[j.cur()]))
	}
	// The window of §3.2: the groups of lengths [|s|−τ, |s|], bulk-built on
	// entry — group |s| ahead of the strings it indexes, which the lookup
	// stage's cut at a string's own id hides from their predecessors.
	err = j.pipe(ref, chunksOf(off), func(l int) { win.Slide(l-tau, l) })
	recordScan(st, win, results, off[index.FirstIndexed(off, tau)])
	return err
}

// IndexFootprint builds the full Pass-Join index over strs (no eviction)
// and reports its approximate size in bytes and its posting count. Used by
// the Table 3 experiment, which compares whole-dataset index sizes across
// methods; like index.New it panics on a threshold or corpus no index can
// be built for, rather than report an empty one.
func IndexFootprint(strs []string, tau int) (bytes, entries int64) {
	fz, err := index.BuildFrozen(strs, tau, 1)
	if err != nil {
		panic(fmt.Sprintf("core: IndexFootprint(%d strings, tau=%d): %v", len(strs), tau, err))
	}
	return fz.MapBytes(), fz.Entries()
}
