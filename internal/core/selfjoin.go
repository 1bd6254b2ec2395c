package core

import (
	"fmt"

	"passjoin/internal/index"
	"passjoin/internal/verify"
)

// SelfJoin finds every unordered pair of strings in strs whose edit
// distance is at most opt.Tau. Result pairs carry original input indices
// with R < S; the slice is sorted lexicographically.
func SelfJoin(strs []string, opt Options) ([]Pair, error) {
	if opt.Tau < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if opt.Parallel > 1 {
		return parallelSelfJoin(strs, opt)
	}
	var out []Pair
	err := SelfJoinFunc(strs, opt, func(p Pair) bool {
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
	recs := sortRecs(strs)
	n := len(recs)
	ref := make([]string, n)
	for i := range recs {
		ref[i] = recs[i].s
	}
	tau := opt.Tau
	st := opt.Stats
	idx := index.New(tau)
	p := newProber(tau, opt.Selection, opt.Verification, st, idx, nil, ref, verify.Sigs(ref))

	var shorts []int32
	shortHead := 0
	prevLen := -1
	var results int64
	var peakBytes, peakEntries int64

	send := func(a, b int32) bool {
		results++
		return emit(normalize(a, b))
	}

scan:
	for sid := 0; sid < n; sid++ {
		s := ref[sid]
		if len(s) != prevLen {
			idx.EvictBelow(len(s) - tau)
			prevLen = len(s)
			// Short strings below the length window can no longer match.
			for shortHead < len(shorts) && len(ref[shorts[shortHead]]) < len(s)-tau {
				shortHead++
			}
		}
		// Visited short strings (length <= tau) bypass the segment index and
		// are verified directly; the two-pointer above keeps only those
		// within the length window.
		for _, rid := range shorts[shortHead:] {
			if p.verifyDirect(ref[rid], s) <= tau {
				if !send(recs[rid].orig, recs[sid].orig) {
					break scan
				}
			}
		}
		p.probe(s, len(s)-tau, len(s))
		for _, rid := range p.hits {
			if !send(recs[rid].orig, recs[sid].orig) {
				break scan
			}
		}
		if len(s) >= tau+1 {
			idx.Add(int32(sid), s)
			if b := idx.Bytes(); b > peakBytes {
				peakBytes = b
				peakEntries = idx.Entries()
			}
		} else {
			shorts = append(shorts, int32(sid))
			if st != nil {
				st.ShortStrings++
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

// IndexFootprint builds the full Pass-Join index over strs (no eviction)
// and reports its approximate size in bytes and its posting count. Used by
// the Table 3 experiment, which compares whole-dataset index sizes across
// methods.
func IndexFootprint(strs []string, tau int) (bytes, entries int64) {
	idx := index.New(tau)
	id := int32(0)
	for _, s := range strs {
		if len(s) >= tau+1 {
			idx.Add(id, s)
		}
		id++
	}
	return idx.Bytes(), idx.Entries()
}
