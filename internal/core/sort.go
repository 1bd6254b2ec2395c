package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"passjoin/internal/index"
	"passjoin/internal/tasks"
	"passjoin/internal/verify"
)

// rec is one string under sort, 16 bytes: its first eight bytes as a
// big-endian integer (zero-padded), which orders strings of one length the
// way their content does until two of them share all eight, and its
// position in the caller's slice, which finds the rest of it.
type rec struct {
	key  uint64
	orig int32
}

// radixCutoff is the group size from which the radix passes' fixed cost —
// a 256-counter histogram per key byte — is less than what the comparison
// sort's log n factor adds (measured on author names of one length: level
// at 256, half the time at 1024).
const radixCutoff = 256

// packChunk is the least a worker allocates for blocks at a time, so that a
// corpus of hundreds of lengths with a few strings each is not hundreds of
// allocations.
const packChunk = 64 << 10

// sortRecs orders strs by (length, content, original index) — the paper's
// processing order, with a deterministic tie-break — and returns the
// sorted strings, the original position of each, and the per-length
// offsets (index.LengthOffsets): the strings of length l are
// ref[off[l]:off[l+1]].
//
// A counting sort by length fills orig with the positions of each length's
// strings, ascending; then every length group is one task, handed largest
// first to workers goroutines (tasks.LargestFirst), which share nothing but
// the arrays they fill disjoint ranges of. A worker makes the records of
// its group in a buffer of its own, sized for the first and largest group
// it claims, sorts them (sortGroup) and writes the positions back to the
// group's range of orig. With pack, the group's strings are copied, in order,
// into one block of their own — ref's headers point into the blocks, none at
// a caller's string, so the scan, the index build and every verification
// read a length's bytes from one contiguous range — and signed (verify.Sigs)
// while the block is hot. Without it ref holds the caller's headers
// reordered and sig is nil: enough for a side that is only ever probed with.
func sortRecs(strs []string, workers int, pack bool) (ref []string, orig []int32, off []int, sig []uint64, err error) {
	return sortRecsBy(strs, workers, pack, sortGroup)
}

// sortRecsBy is sortRecs with the sort of one length group as a parameter,
// so a test can make a task fail.
func sortRecsBy(strs []string, workers int, pack bool, sortGroup func(strs []string, l int, group, tmp []rec) []rec) ([]string, []int32, []int, []uint64, error) {
	if len(strs) > math.MaxInt32 {
		return nil, nil, nil, nil, fmt.Errorf("core: set of %d strings exceeds the %d a pair's index can name", len(strs), math.MaxInt32)
	}
	off := index.LengthOffsets(strs)
	orig := make([]int32, len(strs))
	next := slices.Clone(off)
	groups := 0 // the non-empty ones
	for i, s := range strs {
		if next[len(s)] == off[len(s)] {
			groups++
		}
		orig[next[len(s)]] = int32(i)
		next[len(s)]++
	}
	ref := make([]string, len(strs))
	var sig []uint64
	if pack {
		sig = make([]uint64, len(strs))
	}

	lengths := make([]int, 0, groups)
	for l := 0; l+1 < len(off); l++ {
		if off[l+1] > off[l] {
			lengths = append(lengths, l)
		}
	}
	size := func(k int) int { return off[lengths[k]+1] - off[lengths[k]] }
	err := tasks.LargestFirst(workers, len(lengths), size, func(int) func(int) bool {
		var recs, tmp []rec       // the group's records and the radix sort's other buffer: the first group claimed is the largest
		var arena strings.Builder // the blocks: a large group's is its own, small ones share a packChunk
		return func(k int) bool {
			l := lengths[k]
			lo, hi := off[l], off[l+1]
			if recs == nil {
				recs, tmp = make([]rec, hi-lo), make([]rec, hi-lo)
			}
			group := recs[:hi-lo]
			for i, o := range orig[lo:hi] {
				group[i] = rec{key: prefixKey(strs[o]), orig: o}
			}
			group = sortGroup(strs, l, group, tmp)
			for i, r := range group {
				orig[lo+i] = r.orig
			}
			if !pack {
				for i, r := range group {
					ref[lo+i] = strs[r.orig]
				}
				return true
			}
			if need := l * len(group); arena.Cap()-arena.Len() < need {
				arena = strings.Builder{}
				arena.Grow(max(need, packChunk))
			}
			start := arena.Len()
			for _, r := range group {
				arena.WriteString(strs[r.orig])
			}
			block := arena.String()[start:]
			for i := range group {
				ref[lo+i] = block[i*l : (i+1)*l]
			}
			verify.Sigs(sig[lo:hi], ref[lo:hi])
			return true
		}
	})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: sorting: %w", err)
	}
	return ref, orig, off, sig, nil
}

// prefixKey returns the first eight bytes of s as a big-endian integer,
// zero-padded when s is shorter.
func prefixKey(s string) (key uint64) {
	if len(s) >= 8 {
		// The compiler merges the byte loads into one.
		return uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
			uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
	}
	for k := 0; k < len(s); k++ {
		key |= uint64(s[k]) << (56 - 8*k)
	}
	return key
}

// sortGroup sorts the records of the strings of length l — in ascending
// orig order on entry, as the counting sort left them — by (content, orig)
// and returns them, in group or in tmp, which holds len(group) records or
// more.
//
// A large group takes a stable byte-wise LSD radix sort on the key, all
// eight histograms counted in one sweep and one pass per byte that is not
// the same in every key (strings of one length from one source agree on
// some; those shorter than eight bytes on the padding). That leaves runs of
// equal key, each still in orig order: final for strings of up to eight
// bytes, which the key holds whole, and for longer ones sorted run by run
// with the comparison sort — the only place the sort reads a string. A
// small group goes to the comparison sort whole.
func sortGroup(strs []string, l int, group, tmp []rec) []rec {
	byContent := func(a, b rec) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if c := strings.Compare(strs[a.orig], strs[b.orig]); c != 0 {
			return c
		}
		return cmp.Compare(a.orig, b.orig)
	}
	if len(group) < radixCutoff {
		slices.SortFunc(group, byContent)
		return group
	}

	var count [8][256]uint32 // count[b][v]: the keys whose byte b is v
	for _, r := range group {
		for b := range count {
			count[b][byte(r.key>>(8*b))]++
		}
	}
	tmp = tmp[:len(group)]
	for b := range count {
		c := &count[b]
		if c[byte(group[0].key>>(8*b))] == uint32(len(group)) {
			continue
		}
		at := uint32(0) // where the records with byte b = v go: after those with a smaller one
		for v, n := range c {
			c[v] = at
			at += n
		}
		for _, r := range group {
			v := byte(r.key >> (8 * b))
			tmp[c[v]] = r
			c[v]++
		}
		group, tmp = tmp, group
	}

	if l > 8 {
		for lo := 0; lo < len(group); {
			hi := lo + 1
			for hi < len(group) && group[hi].key == group[lo].key {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(group[lo:hi], byContent)
			}
			lo = hi
		}
	}
	return group
}
