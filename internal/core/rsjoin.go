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
// scan window are released, so at most (τ+1)·(2τ+1) inverted indices are
// live. opt.Parallel > 1 indexes all of sset once and probes it from that
// many workers (JoinStream) instead, with the same results.
func Join(rset, sset []string, opt Options) ([]Pair, error) {
	return collect(func(emit func(Pair) bool) error {
		if opt.Parallel > 1 {
			return JoinStream(context.Background(), rset, sset, opt, emit)
		}
		return JoinFunc(rset, sset, opt, emit)
	})
}

// JoinFunc streams R×S join results to emit as they are found, in scan
// order (not sorted). emit returning false stops the join early.
func JoinFunc(rset, sset []string, opt Options, emit func(Pair) bool) error {
	if opt.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if emit == nil {
		return fmt.Errorf("core: nil emit callback")
	}
	tau := opt.Tau
	st := opt.Stats
	// rset is read once, front to back: ordered, not copied.
	rRef, rOrig, _, _, err := sortRecs(rset, 1, false)
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

	prevLen := -1
	var results int64
scan:
	for rid, r := range rRef {
		if len(r) != prevLen {
			win.Slide(len(r)-tau, len(r)+tau)
			prevLen = len(r)
		}
		for _, sid := range p.probeRS(r, off) {
			results++
			if !emit(Pair{R: rOrig[rid], S: orig[sid]}) {
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

// probeRS returns the ids of the indexed strings within tau of r, the R≠S
// join's step for one probe string: the index answers for the strings long
// enough to partition, and the shorter ones inside the length window — one
// contiguous id range of a corpus sorted by sortRecs (off its offsets) —
// are verified directly.
func (p *prober) probeRS(r string, off []int) []int32 {
	p.probe(r, len(r)-p.tau, len(r)+p.tau)
	for sid := offAt(off, len(r)-p.tau); sid < offAt(off, p.tau+1); sid++ {
		if p.verifyDirect(p.ref[sid], r) <= p.tau {
			p.hits = append(p.hits, int32(sid))
		}
	}
	return p.hits
}
