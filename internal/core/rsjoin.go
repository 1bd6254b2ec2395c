package core

import (
	"context"
	"fmt"

	"passjoin/internal/index"
)

// Join finds every pair (r, s) in rset × sset with ed(r, s) <= opt.Tau.
// Result pairs carry original input indices (Pair.R into rset, Pair.S into
// sset); the slice is sorted lexicographically.
//
// Per §3.2, the strings of sset are partitioned and indexed; the strings of
// rset are scanned in (length, content) order and probe indexed lengths in
// [|r|−τ, |r|+τ]. Indexing is incremental: an sset length group is built
// once the scan reaches probes long enough to see it, and groups below the
// scan window are released, their tables going to the groups built after
// them (index.Window), so at most (τ+1)·(2τ+1) inverted indices are live.
// opt.Parallel > 1 indexes all of sset once and probes it from that
// many workers (JoinStream) instead, with the same results.
func Join(rset, sset []string, opt Options) ([]Pair, error) {
	return collect(func(emit func(Pair) bool) error {
		if opt.Parallel > 1 {
			return JoinStream(context.Background(), rset, sset, opt, emit)
		}
		return JoinFunc(rset, sset, opt, emit)
	})
}

// JoinFunc streams R×S join results to emit as they are found, by
// non-decreasing length of the rset string (not sorted). emit returning
// false stops the join early. Like SelfJoinFunc it scans on at most two
// goroutines and calls emit on the caller's.
func JoinFunc(rset, sset []string, opt Options, emit func(Pair) bool) error {
	if opt.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if emit == nil {
		return fmt.Errorf("core: nil emit callback")
	}
	tau := opt.Tau
	st := opt.Stats
	// rset is only probed with: ordered, not copied.
	rRef, rOrig, rOff, _, err := sortRecs(rset, 1, false)
	if err != nil {
		return err
	}
	ref, orig, off, sig, err := sortRecs(sset, 1, true)
	if err != nil {
		return err
	}
	win, err := index.NewWindow(ref, off, tau)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}
	p := newProber(tau, opt.Selection, opt.Verification, st, nil, win.Frozen(), ref, sig)
	j := newBlockJoin(p, off, false)
	var results int64
	p.emit = func(sid, _ int32) bool {
		results++
		return emit(Pair{R: rOrig[j.cur()], S: orig[sid]})
	}
	err = j.pipe(rRef, chunksOf(rOff), func(l int) {
		win.Slide(l-tau, l+min(tau, len(off))) // no group is as long as len(off), and l+tau may wrap
	})
	recordScan(st, win, results, off[index.FirstIndexed(off, tau)])
	return err
}
