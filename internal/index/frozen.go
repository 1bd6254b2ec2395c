package index

import (
	"fmt"
	"math/bits"

	"passjoin/internal/partition"
)

// Frozen is the read-optimized form of an Index: the second phase of the
// build→freeze lifecycle. Where Index keeps one Go map per (length, slot)
// so segments can be appended and groups evicted, Frozen replaces each map
// with a flat open-addressing table of 8-byte rows (see linearTable) beside
// one []int32 of the slot's count-prefixed posting lists; a list of one
// posting is its row. Keys are not stored: a row carries 30 bits of the
// segment's hash, and a match is confirmed by comparing the probe substring
// against that segment of the first posted string, so a lookup touches the
// row, the list if it is not the row, and one corpus string. Nothing else
// stores a hash — the builder derives them from the corpus — and no file
// holds an index at all (a PJIX snapshot is a corpus), so nothing depends on
// hash64 or on the layout of a table.
//
// A Frozen is immutable and safe for concurrent use by any number of
// goroutines. buildFrozen is the only code that makes one, under BuildFrozen
// (bulk, from a complete corpus); a Window is the exception: the one Frozen
// whose groups come and go, under a single-goroutine join scan, built a group
// at a time by the same slotBuilder.
type Frozen struct {
	tau     int
	groups  []*FrozenGroup // dense, indexed by string length; nil holes
	ref     []string
	entries int64
	bytes   int64
}

// FrozenGroup holds the tau+1 frozen slot tables for one string length,
// each with the posting lists of its slot.
type FrozenGroup struct {
	L      int
	segs   []partition.Seg
	tables []linearTable
	ref    []string
}

// newGroup returns the empty group for the strings of ref with length l.
func newGroup(ref []string, tau, l int) *FrozenGroup {
	return &FrozenGroup{L: l, segs: partition.Segments(l, tau), tables: make([]linearTable, tau+1), ref: ref}
}

// hash64 hashes a segment a word at a time: up to 16 bytes are two
// (overlapping) little-endian loads folded by one 64×64→128 multiply, every
// further 16 bytes cost one more, and a splitmix-style finalizer mixes the
// low bits the power-of-two tables index by. The length seeds the state,
// so a trailing NUL changes the value. Nothing persists these hashes (see
// Frozen), so the function may change again.
func hash64(s string) uint64 {
	const k0, k1 = 0x9e3779b97f4a7c15, 0xe7037ed1a0b428db
	h := uint64(len(s)) * k0
	for ; len(s) > 16; s = s[16:] {
		h = mulFold(le64(s, 0)^k1, le64(s, 8)^h)
	}
	var a, b uint64
	switch n := len(s); {
	case n >= 8:
		a, b = le64(s, 0), le64(s, n-8)
	case n >= 4:
		a, b = le32(s, 0), le32(s, n-4)
	case n > 0:
		a = uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1])
	}
	h = mulFold(a^k1, b^h)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// le64 and le32 load little-endian words from s at byte i; the compiler
// merges the byte loads into one.
func le64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string, i int) uint64 {
	s = s[i : i+4]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// Tau returns the threshold the index was built for.
func (f *Frozen) Tau() int { return f.tau }

// Entries returns the number of postings indexed.
func (f *Frozen) Entries() int64 { return f.entries }

// Bytes returns the exact retained size of the frozen structure: the slot
// tables and their posting lists. Corpus strings are shared with the caller
// and not charged.
func (f *Frozen) Bytes() int64 { return f.bytes }

// MapBytes returns what Index.Bytes reports for a map index holding the
// same postings — the cost model behind Table 3 is a function of the
// group, distinct-segment and posting counts, all of which survive the
// freeze — so a bulk build can report the figure without building the maps.
func (f *Frozen) MapBytes() int64 {
	b := f.entries * postingBytes
	for _, g := range f.groups {
		if g != nil {
			b += g.mapKeyBytes()
		}
	}
	return b
}

// mapKeyBytes is the group's share of MapBytes apart from its postings:
// the group, its maps and one entry per distinct segment.
func (g *FrozenGroup) mapKeyBytes() int64 {
	b := int64(groupOverhead + len(g.tables)*mapOverhead)
	for i := range g.tables {
		b += int64(g.tables[i].keys) * int64(entryOverhead+g.segs[i].Len)
	}
	return b
}

// Group returns the frozen group for length l, or nil.
func (f *Frozen) Group(l int) *FrozenGroup {
	if l < 0 || l >= len(f.groups) {
		return nil
	}
	return f.groups[l]
}

// Seg returns the 1-based start position and length of the i-th segment
// (1-based) of this group's strings — precomputed at freeze time so the
// probe loop skips the per-length partition arithmetic.
func (g *FrozenGroup) Seg(i int) (pos, length int) {
	sg := g.segs[i-1]
	return sg.Pos, sg.Len
}

// List returns the posting list for the i-th segment (1-based) equal to w,
// or nil. The returned slice aliases the index — a list of one posting is
// the table row itself, len 1 and cap 1, so an append copies — and must not
// be modified.
func (g *FrozenGroup) List(i int, w string) []int32 {
	if g == nil {
		return nil
	}
	t := &g.tables[i-1]
	if t.rows == nil {
		return nil
	}
	h := hash64(w)
	for row, cell := t.lookup(h, uint32(h)); row != nil; row, cell = t.lookup(h, cell) {
		if lst := t.list(row); g.confirms(i-1, g.ref[lst[0]], w) {
			return lst
		}
	}
	return nil
}

// confirms reports whether a list is the one for w: the slot's segment of
// r, any string posted on it (all of them share it), must equal w. A
// mismatch is another segment under the same tag — the next row may match.
func (g *FrozenGroup) confirms(slot int, r, w string) bool {
	sg := g.segs[slot]
	return r[sg.Pos-1:sg.Pos-1+sg.Len] == w
}

// ProbeBatchSize is the number of lookups a ProbeBatch holds: every lookup
// of a tau=2 query (19) fits one batch, and a tau=8 title takes eight.
const ProbeBatchSize = 32

// pendingLookup is one lookup of a ProbeBatch. It names its substring by
// position, not by value, so a batch at rest holds no part of a probe string.
type pendingLookup struct {
	g    *FrozenGroup
	lst  []int32 // Resolve's answer, if the lookup is among the hits
	r    string  // the first string posted on lst, until lst is confirmed
	h    uint64
	tag  uint32 // the tag of h's home row; 0 when the lookup cannot hit
	slot int32  // 0-based
	pos  int32  // 0-based offset of the substring in the probe string
	b0   byte   // the first byte of r's segment
}

// ProbeBatch resolves up to ProbeBatchSize lookups of one probe string
// together. A lookup is a chain of loads each of which waits for the one
// before — table row, list, the first posted string's header, its segment
// bytes — and in an index larger than the cache every one is a miss; the
// lookups of one string do not depend on one another, so Resolve takes the
// whole batch through one step at a time and the misses of a step overlap.
// The answers are List's. The zero value is an empty batch; a batch is
// single-goroutine state, and keeps referring to the index (never to a probe
// string) until its entries are used again.
type ProbeBatch struct {
	n    int
	nhit int
	e    [ProbeBatchSize]pendingLookup
	hit  [ProbeBatchSize]uint8
}

// Len returns the number of lookups added since the last Reset.
func (b *ProbeBatch) Len() int { return b.n }

// Reset empties the batch.
func (b *ProbeBatch) Reset() { b.n, b.nhit = 0, 0 }

// Add appends the lookup of the substring at 1-based position pos of the
// probe string in the i-th segment slot (1-based) of g — nil, like List,
// for a length without a group — and reports whether the batch is now full.
func (b *ProbeBatch) Add(g *FrozenGroup, i, pos int) (full bool) {
	e := &b.e[b.n]
	e.g, e.slot, e.pos = g, int32(i-1), int32(pos-1)
	b.n++
	return b.n == len(b.e)
}

// Hits returns, after Resolve, which lookups found a list, ascending: the
// others are misses, which a reader need not visit one by one.
func (b *ProbeBatch) Hits() []uint8 { return b.hit[:b.nhit] }

// At returns the k-th lookup as it was added and, for a k that Hits names,
// its list: exactly what g.List(i, w) returns for the substring w at pos.
func (b *ProbeBatch) At(k int) (g *FrozenGroup, i, pos int, lst []int32) {
	e := &b.e[:b.n][k]
	return e.g, int(e.slot) + 1, int(e.pos) + 1, e.lst
}

// Resolve answers every lookup in the batch for probe string s. Each loop
// below is one step of List over the whole batch; the loads inside a loop
// are independent, so the core keeps them all in flight. The first two run
// over every lookup, the last three over the hits only. Confirmation stays
// in here (rather than with whoever reads the lists) so that a list handed
// out is the segment's own, as List's is, and a hit can be counted.
func (b *ProbeBatch) Resolve(s string) {
	e := b.e[:b.n]
	// 1. Hash the substring and load its home row.
	for k := range e {
		p := &e[k]
		p.tag = 0
		if p.g == nil {
			continue
		}
		t := &p.g.tables[p.slot]
		if t.rows == nil {
			continue
		}
		p.h = hash64(s[p.pos : int(p.pos)+p.g.segs[p.slot].Len])
		p.tag = t.rows[uint32(p.h)&t.mask].tag
	}
	// 2. Walk the chain to the first row under the tag and take its list:
	// the row itself, or a count-prefixed range of the slot's postings.
	hits := b.hit[:0]
	for k := range e {
		p := &e[k]
		if p.tag == 0 { // a free home cell ends the chain before it starts
			continue
		}
		t := &p.g.tables[p.slot]
		row, _ := t.lookup(p.h, uint32(p.h))
		if row == nil {
			continue
		}
		p.lst = t.list(row)
		hits = append(hits, uint8(k))
	}
	// 3. Load the header of the first posted string,
	for _, k := range hits {
		p := &e[k]
		p.r = p.g.ref[p.lst[0]]
	}
	// 4. and the first byte of its segment: the miss is on the line, not
	// on how much of it is compared.
	for _, k := range hits {
		p := &e[k]
		p.b0 = p.r[p.g.segs[p.slot].Pos-1]
	}
	// 5. Confirm against the corpus. A mismatch is a tag collision, one
	// lookup in 10⁹: List walks that chain again, past the row met here,
	// and a lookup it cannot confirm either is dropped from the hits.
	confirmed := hits[:0]
	for _, k := range hits {
		p := &e[k]
		w := s[p.pos : int(p.pos)+p.g.segs[p.slot].Len]
		if p.b0 != w[0] || !p.g.confirms(int(p.slot), p.r, w) {
			if p.lst = p.g.List(int(p.slot)+1, w); p.lst == nil {
				continue
			}
		}
		confirmed = append(confirmed, k)
	}
	b.nhit = len(confirmed)
}

// BlockBatchSize is the number of strings a BlockResolver takes through one
// table at a time: enough that the misses of a step overlap as far as the
// core lets them (batches of 32 to 255 measured level on both join corpora),
// few enough that the batch's own state stays in the first-level cache.
const BlockBatchSize = 64

// BlockResolver is the join's batch where ProbeBatch is the query's. A query
// has one string and every table of its length window to ask, so its batch
// is one string × many tables; a join has runs of equal-length strings, which
// all put the same (length, slot, position) questions (the selection window
// is a function of the two lengths and the slot alone, §4.2), so its batch is
// many strings × one table: Resolve answers one such question for up to
// BlockBatchSize strings through the five staged loops of ProbeBatch.Resolve,
// with the table, its mask and the segment's bounds loaded once for the
// batch rather than once per lookup — and a join whose strings lie side by
// side in memory (core's packed length groups) reads its substrings from
// consecutive lines. The answers are List's. The zero value is ready; a
// resolver is single-goroutine state and keeps referring to the index and to
// the strings of its last batch until the next one.
type BlockResolver struct {
	nhit int
	h    [BlockBatchSize]uint64
	tag  [BlockBatchSize]uint32 // the tag of h's home row; 0 when the lookup cannot hit
	lst  [BlockBatchSize][]int32
	r    [BlockBatchSize]string // the first string posted on lst, until lst is confirmed
	b0   [BlockBatchSize]byte   // the first byte of r's segment
	hit  [BlockBatchSize]uint8
}

// Resolve looks up, for each of strs — at most BlockBatchSize strings, each
// long enough to hold it — the substring at 1-based position pos in the i-th
// segment slot (1-based) of g, which may be nil as for List.
func (b *BlockResolver) Resolve(g *FrozenGroup, i, pos int, strs []string) {
	b.nhit = 0
	if g == nil {
		return
	}
	t := &g.tables[i-1]
	if t.rows == nil {
		return
	}
	sg := g.segs[i-1]
	lo, hi := pos-1, pos-1+sg.Len
	// 1. Hash the substrings and load their home rows.
	for k, s := range strs {
		h := hash64(s[lo:hi])
		b.h[k] = h
		b.tag[k] = t.rows[uint32(h)&t.mask].tag
	}
	// 2. Walk each chain to the first row under the tag and take its list.
	hits := b.hit[:0]
	for k := range strs {
		if b.tag[k] == 0 { // a free home cell ends the chain before it starts
			continue
		}
		row, _ := t.lookup(b.h[k], uint32(b.h[k]))
		if row == nil {
			continue
		}
		b.lst[k] = t.list(row)
		hits = append(hits, uint8(k))
	}
	// 3. Load the header of the first posted string,
	for _, k := range hits {
		b.r[k] = g.ref[b.lst[k][0]]
	}
	// 4. and the first byte of its segment.
	for _, k := range hits {
		b.b0[k] = b.r[k][sg.Pos-1]
	}
	// 5. Confirm against the corpus; a tag collision goes back through List.
	confirmed := hits[:0]
	for _, k := range hits {
		w := strs[k][lo:hi]
		if b.b0[k] != w[0] || !g.confirms(i-1, b.r[k], w) {
			if b.lst[k] = g.List(i, w); b.lst[k] == nil {
				continue
			}
		}
		confirmed = append(confirmed, k)
	}
	b.nhit = len(confirmed)
}

// Hits returns, after Resolve, which of the strings found a list, ascending.
func (b *BlockResolver) Hits() []uint8 { return b.hit[:b.nhit] }

// List returns the list of the k-th string, for a k that Hits names: exactly
// what g.List(i, w) returns for its substring w at pos.
func (b *BlockResolver) List(k uint8) []int32 { return b.lst[k] }

// Freeze returns the frozen index of ref, which must hold exactly the
// strings added: ref[id] is the string passed to Add with that id, and every
// string of ref with at least tau+1 bytes was added. It is BuildFrozen — the
// maps are not read, only their posting count, which says whether that
// precondition held — and is kept because bench/, which a change to the
// program may not edit, times it in two rungs (index.freeze_ns_per_string);
// ROADMAP item 1 retargets them and deletes this. The mutable index is left
// untouched.
func (x *Index) Freeze(ref []string) *Frozen {
	f, err := BuildFrozen(ref, x.tau, 1)
	if err != nil {
		panic("index: " + err.Error())
	}
	if f.entries != x.entries {
		panic(fmt.Sprintf("index: Freeze over a corpus of %d postings, %d were added", f.entries, x.entries))
	}
	return f
}

// account fills in the retained size once the posting count and every
// table are in place.
func (f *Frozen) account() {
	for _, g := range f.groups {
		if g == nil {
			continue
		}
		f.bytes += frozenGroupOverhead
		for i := range g.tables {
			f.bytes += g.tables[i].bytes()
		}
	}
}

// frozenGroupOverhead is the approximate fixed cost of one group:
// FrozenGroup struct + segs + table headers. Table backing arrays are
// accounted exactly (unlike the mutable index's cost model).
const frozenGroupOverhead = 64
