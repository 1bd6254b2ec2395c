package core

import (
	"fmt"

	"passjoin/internal/index"
	"passjoin/internal/verify"
)

// Join finds every pair (r, s) in rset × sset with ed(r, s) <= opt.Tau.
// Result pairs carry original input indices (Pair.R into rset, Pair.S into
// sset); the slice is sorted lexicographically.
//
// Per §3.2, the strings of sset are partitioned and indexed; the strings of
// rset are scanned in (length, content) order and probe indexed lengths in
// [|r|−τ, |r|+τ]. Indexing is incremental: an sset string is inserted once
// the scan reaches probes long enough to see it, and groups below the scan
// window are evicted, so at most (τ+1)·(2τ+1) inverted indices are live.
func Join(rset, sset []string, opt Options) ([]Pair, error) {
	if opt.Parallel > 1 {
		return parallelJoin(rset, sset, opt)
	}
	var out []Pair
	err := JoinFunc(rset, sset, opt, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	SortPairs(out)
	return out, nil
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
	rRecs := sortRecs(rset)
	sRecs := sortRecs(sset)
	ref := make([]string, len(sRecs))
	for i := range sRecs {
		ref[i] = sRecs[i].s
	}
	idx := index.New(tau)
	p := newProber(tau, opt.Selection, opt.Verification, st, idx, nil, ref, verify.Sigs(ref))

	var shorts []int32
	shortHead := 0
	inserted := 0
	prevLen := -1
	var results int64
	var peakBytes, peakEntries int64

scan:
	for rid := 0; rid < len(rRecs); rid++ {
		r := rRecs[rid].s
		if len(r) != prevLen {
			prevLen = len(r)
			// Evict before inserting so the live window never exceeds
			// [|r|−τ, |r|+τ]: at most 2τ+1 length groups.
			idx.EvictBelow(len(r) - tau)
			// Make every sset string with length <= |r|+τ visible.
			for inserted < len(sRecs) && len(sRecs[inserted].s) <= len(r)+tau {
				s := sRecs[inserted].s
				if len(s) >= tau+1 {
					idx.Add(int32(inserted), s)
					if b := idx.Bytes(); b > peakBytes {
						peakBytes = b
						peakEntries = idx.Entries()
					}
				} else {
					shorts = append(shorts, int32(inserted))
					if st != nil {
						st.ShortStrings++
					}
				}
				inserted++
			}
			for shortHead < len(shorts) && len(ref[shorts[shortHead]]) < len(r)-tau {
				shortHead++
			}
		}
		for _, sid := range shorts[shortHead:] {
			// shorts are sorted by length; all of them are <= |r|+τ by the
			// insertion rule and >= |r|−τ by the two-pointer.
			if p.verifyDirect(ref[sid], r) <= tau {
				results++
				if !emit(Pair{R: rRecs[rid].orig, S: sRecs[sid].orig}) {
					break scan
				}
			}
		}
		p.probe(r, len(r)-tau, len(r)+tau)
		for _, sid := range p.hits {
			results++
			if !emit(Pair{R: rRecs[rid].orig, S: sRecs[sid].orig}) {
				break scan
			}
		}
		if st != nil {
			st.Strings++
		}
	}
	if st != nil {
		st.Results += results
		st.IndexBytes = peakBytes
		st.IndexEntries = peakEntries
		st.PeakLiveGroups = int64(idx.PeakGroups())
	}
	return nil
}
