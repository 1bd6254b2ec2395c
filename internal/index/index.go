// Package index implements the segment inverted indices of Pass-Join
// (§3.2). Strings of equal length l form a group; the group holds tau+1
// inverted maps, one per segment slot, from segment content to the IDs of
// the strings whose i-th segment equals that content.
//
// Index is the mutable form, one Go map per (length, slot): it takes
// strings in any order, one at a time, and serves the online Matcher until
// it is sealed. Frozen (frozen.go) is the read-optimized form every join
// and every sealed searcher probes; BuildFrozen and Window (build.go) build
// it straight from a corpus.
package index

import (
	"passjoin/internal/partition"
)

// Index stores segment postings grouped by string length.
type Index struct {
	tau    int
	groups map[int]*Group
	// entries counts stored postings; bytes approximates retained memory.
	entries int64
	bytes   int64
}

// Group holds the tau+1 inverted maps for one string length.
type Group struct {
	L    int
	segs []map[string][]int32
}

// New returns an empty index for threshold tau.
func New(tau int) *Index {
	if tau < 0 {
		panic("index: negative threshold")
	}
	return &Index{tau: tau, groups: make(map[int]*Group)}
}

// Tau returns the threshold the index was built for.
func (x *Index) Tau() int { return x.tau }

// Add partitions s into tau+1 segments and appends id to each segment's
// posting list. s must have length >= tau+1 (shorter strings cannot be
// partitioned; the engine routes them to a side list).
func (x *Index) Add(id int32, s string) {
	l := len(s)
	g := x.groups[l]
	if g == nil {
		g = &Group{L: l, segs: make([]map[string][]int32, x.tau+1)}
		for i := range g.segs {
			g.segs[i] = make(map[string][]int32)
		}
		x.groups[l] = g
		x.bytes += int64(groupOverhead + (x.tau+1)*mapOverhead)
	}
	segs := partition.Segments(l, x.tau)
	for i, sg := range segs {
		w := s[sg.Pos-1 : sg.Pos-1+sg.Len]
		lst := g.segs[i][w]
		if lst == nil {
			// Key string headers are shared with the corpus (substrings),
			// but the map entry itself costs roughly key header + slice.
			x.bytes += int64(entryOverhead + sg.Len)
		}
		g.segs[i][w] = append(lst, id)
		x.entries++
		x.bytes += postingBytes
	}
}

// Group returns the group for length l, or nil if no string of that length
// has been indexed.
func (x *Index) Group(l int) *Group {
	return x.groups[l]
}

// List returns the posting list for the i-th segment (1-based) equal to w,
// or nil.
func (g *Group) List(i int, w string) []int32 {
	if g == nil {
		return nil
	}
	return g.segs[i-1][w]
}

// Entries returns the number of live postings.
func (x *Index) Entries() int64 { return x.entries }

// Bytes approximates the retained size of the index in bytes: postings
// (4 bytes each) plus per-distinct-segment map entry overhead. Segment keys
// are substrings sharing the corpus' backing arrays, so only their headers
// and lengths are charged. Used for Table 3.
func (x *Index) Bytes() int64 { return x.bytes }

// Cost model constants for Bytes. These are engineering approximations of
// Go runtime overheads (map buckets, slice headers), not exact accounting.
const (
	postingBytes  = 4  // one int32 posting
	entryOverhead = 48 // map entry: key header (16) + slice header (24) + bucket share
	mapOverhead   = 96 // empty map descriptor + initial buckets
	groupOverhead = 64 // Group struct + slice of maps
)
