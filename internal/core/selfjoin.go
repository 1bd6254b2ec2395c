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

// SelfJoinFunc streams the self-join results to emit as they are found,
// in scan order (not sorted), without materializing the result set. emit
// returning false stops the join early. opt.Parallel is ignored — the
// streaming form is sequential so emit needs no synchronization.
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

	prevLen := -1
	var results int64
scan:
	for sid, s := range ref {
		if len(s) != prevLen {
			// The window of §3.2: the groups of lengths [|s|−τ, |s|], bulk-built
			// on entry — group |s| ahead of the strings it indexes, which
			// probeSelf's maxID hides from their predecessors.
			win.Slide(len(s)-tau, len(s))
			prevLen = len(s)
		}
		for _, rid := range p.probeSelf(sid, off) {
			results++
			if !emit(normalize(orig[rid], orig[sid])) {
				break scan
			}
		}
		if st != nil {
			st.Strings++
		}
	}
	recordScan(st, win, results, offAt(off, tau+1))
	return nil
}

// probeSelf returns the ids below sid within tau of ref[sid], the self
// join's step for one string of a corpus sorted by sortRecs (off its
// offsets): the index answers for the predecessors long enough to
// partition, and the shorter ones inside the length window — one contiguous
// id range — are verified directly.
//
// Two rules make the work counters those of a scan that indexes each string
// after probing it, whether the index holds the whole corpus (the parallel
// mode) or a window of bulk-built groups: the first string of a length does
// not probe its own length's group, which such a scan has not created yet
// (here), and a list that begins at or past sid is not a lookup hit (probe).
func (p *prober) probeSelf(sid int, off []int) []int32 {
	s := p.ref[sid]
	lmax := len(s)
	if sid == off[lmax] {
		lmax--
	}
	p.maxID = int32(sid)
	p.probe(s, len(s)-p.tau, lmax)
	for rid := offAt(off, len(s)-p.tau); rid < min(sid, offAt(off, p.tau+1)); rid++ {
		if p.verifyDirect(p.ref[rid], s) <= p.tau {
			p.hits = append(p.hits, int32(rid))
		}
	}
	return p.hits
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
