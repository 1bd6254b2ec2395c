package index

import (
	"fmt"
	"sort"

	"passjoin/internal/partition"
)

// Frozen is the read-optimized form of an Index: the second phase of the
// build→freeze lifecycle. Where Index keeps one Go map per (length, slot)
// so segments can be appended and groups evicted, Frozen packs every
// posting into a single contiguous []int32 CSR arena and replaces each map
// with a flat open-addressing table keyed by 64-bit segment hashes. Keys
// are not stored: a hash match is confirmed by comparing the probe
// substring against the corresponding segment of the first posted string,
// so lookups touch only the table row, the arena, and one corpus string.
//
// A Frozen is immutable and safe for concurrent use by any number of
// goroutines. It is built by BuildFrozen (bulk, from a complete corpus), by
// Index.Freeze (the seal after online inserts) or by a FrozenBuilder (the
// PJIX v2 snapshot loader).
type Frozen struct {
	tau     int
	layout  Layout
	groups  []*FrozenGroup // dense, indexed by string length; nil holes
	arena   []int32
	ref     []string
	entries int64
	bytes   int64
}

// FrozenGroup holds the tau+1 frozen slot tables for one string length.
// The tables' memory organisation is a Layout picked at build time (see
// segtable.go); a nil table means the slot received no lists.
type FrozenGroup struct {
	L      int
	segs   []partition.Seg
	tables []segTable
	arena  []int32
	ref    []string
}

// hash64 hashes a segment with FNV-1a and a splitmix-style finalizer so
// the low bits used by the power-of-two tables are well mixed. The
// function is fixed: PJIX v2 snapshots store these hashes verbatim.
func hash64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Tau returns the threshold the index was built for.
func (f *Frozen) Tau() int { return f.tau }

// Layout returns the segment-table layout the index was built with.
func (f *Frozen) Layout() Layout { return f.layout }

// Entries returns the number of postings in the arena.
func (f *Frozen) Entries() int64 { return f.entries }

// Bytes returns the exact retained size of the frozen structure: the
// arena plus the slot tables. Corpus strings are shared with the caller
// and not charged.
func (f *Frozen) Bytes() int64 { return f.bytes }

// MapBytes returns what Index.Bytes reports for a map index holding the
// same postings — the cost model behind Table 3 is a function of the
// group, distinct-segment and posting counts, all of which survive the
// freeze — so a bulk build can report the figure without building the maps.
func (f *Frozen) MapBytes() int64 {
	b := f.entries * postingBytes
	for _, g := range f.groups {
		if g == nil {
			continue
		}
		b += int64(groupOverhead + len(g.tables)*mapOverhead)
		for i, t := range g.tables {
			if t != nil {
				t.each(func(uint64, uint32, uint32) { b += int64(entryOverhead + g.segs[i].Len) })
			}
		}
	}
	return b
}

// Lengths returns the sorted lengths that have a group.
func (f *Frozen) Lengths() []int {
	var out []int
	for l, g := range f.groups {
		if g != nil {
			out = append(out, l)
		}
	}
	return out
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
// or nil. The returned slice aliases the shared arena and must not be
// modified.
func (g *FrozenGroup) List(i int, w string) []int32 {
	if g == nil {
		return nil
	}
	t := g.tables[i-1]
	if t == nil {
		return nil
	}
	sg := g.segs[i-1]
	h := hash64(w)
	for nth := 0; ; nth++ {
		start, count, ok := t.lookup(h, nth)
		if !ok {
			return nil
		}
		lst := g.arena[start : start+count]
		// Confirm against the corpus: the i-th segment of any posted
		// string must equal w (all strings on one list share it). A
		// mismatch is a full 64-bit hash collision — ask for the next row.
		r := g.ref[lst[0]]
		if r[sg.Pos-1:sg.Pos-1+sg.Len] == w {
			return lst
		}
	}
}

// Slot calls fn for every (hash, postings) list of the i-th segment slot
// (1-based), in table order. Used by the PJIX v2 writer.
func (g *FrozenGroup) Slot(i int, fn func(hash uint64, postings []int32)) {
	t := g.tables[i-1]
	if t == nil {
		return
	}
	t.each(func(h uint64, start, count uint32) {
		fn(h, g.arena[start:start+count])
	})
}

// Freeze packs the index into its immutable read-optimized form. ref is
// the corpus the postings index into (ref[id] must be the string passed to
// Add with that id); Frozen keeps it for lookup confirmation. The mutable
// index is left untouched.
func (x *Index) Freeze(ref []string) *Frozen {
	return x.FreezeLayout(ref, DefaultLayout)
}

// FreezeLayout is Freeze with an explicit segment-table layout — the
// entry point of the table-layout lab (benchmarks and the `experiments
// hotpath` calibration build every layout from one index and race them).
func (x *Index) FreezeLayout(ref []string, layout Layout) *Frozen {
	b, err := NewFrozenBuilder(x.tau, ref, x.entries)
	if err != nil {
		panic("index: " + err.Error())
	}
	if err := b.SetLayout(layout); err != nil {
		panic("index: " + err.Error())
	}
	lengths := x.Lengths()
	sort.Ints(lengths)
	for _, l := range lengths {
		g := x.groups[l]
		if err := b.BeginGroup(l); err != nil {
			panic("index: " + err.Error())
		}
		for i := 1; i <= x.tau+1; i++ {
			m := g.segs[i-1]
			if err := b.BeginSlot(i, len(m)); err != nil {
				panic("index: " + err.Error())
			}
			for w, lst := range m {
				if err := b.AddList(hash64(w), lst); err != nil {
					panic("index: " + err.Error())
				}
			}
		}
	}
	f, err := b.Finish()
	if err != nil {
		panic("index: " + err.Error())
	}
	return f
}

// FrozenBuilder assembles a Frozen from pre-counted parts: Index.Freeze
// feeds it from the live maps, the PJIX v2 loader feeds it straight from a
// snapshot (which is the point — cold starts skip re-indexing entirely).
// Every input is validated so a corrupted snapshot fails loudly instead of
// building an index that panics at query time.
type FrozenBuilder struct {
	tau       int
	layout    Layout
	ref       []string
	maxRefLen int
	f         *Frozen
	groups    map[int]*FrozenGroup
	cur       *FrozenGroup
	curSlot   int // 0 = none begun
	off       uint32
}

// SetLayout overrides the segment-table layout (default DefaultLayout).
// It must be called before the first BeginGroup — tables are sized and
// shaped per slot as groups arrive.
func (b *FrozenBuilder) SetLayout(l Layout) error {
	if l >= numLayouts {
		return fmt.Errorf("unknown table layout %d", l)
	}
	if len(b.groups) > 0 {
		return fmt.Errorf("SetLayout after BeginGroup")
	}
	b.layout = l
	b.f.layout = l
	return nil
}

// NewFrozenBuilder starts a build for threshold tau over corpus ref with
// exactly totalPostings postings to come.
func NewFrozenBuilder(tau int, ref []string, totalPostings int64) (*FrozenBuilder, error) {
	if tau < 0 {
		return nil, fmt.Errorf("negative threshold %d", tau)
	}
	if totalPostings < 0 || totalPostings > int64(len(ref))*int64(tau+1) {
		return nil, fmt.Errorf("posting count %d impossible for corpus of %d strings at tau=%d", totalPostings, len(ref), tau)
	}
	if err := checkArena(len(ref), totalPostings); err != nil {
		return nil, err
	}
	maxRefLen := 0
	for _, s := range ref {
		if len(s) > maxRefLen {
			maxRefLen = len(s)
		}
	}
	return &FrozenBuilder{
		tau:       tau,
		layout:    DefaultLayout,
		ref:       ref,
		maxRefLen: maxRefLen,
		f:         &Frozen{tau: tau, layout: DefaultLayout, ref: ref, arena: make([]int32, totalPostings)},
		groups:    make(map[int]*FrozenGroup),
	}, nil
}

// BeginGroup starts the group for string length L. Groups may arrive in
// any order but each length at most once.
func (b *FrozenBuilder) BeginGroup(L int) error {
	if L < b.tau+1 || L > b.maxRefLen {
		return fmt.Errorf("group length %d outside [%d, %d]", L, b.tau+1, b.maxRefLen)
	}
	if _, dup := b.groups[L]; dup {
		return fmt.Errorf("duplicate group for length %d", L)
	}
	g := &FrozenGroup{
		L:      L,
		segs:   partition.Segments(L, b.tau),
		tables: make([]segTable, b.tau+1),
		arena:  b.f.arena,
		ref:    b.ref,
	}
	b.groups[L] = g
	b.cur = g
	b.curSlot = 0
	return nil
}

// BeginSlot sizes the open-addressing table for the i-th segment slot
// (1-based) of the current group, which will receive exactly nKeys lists.
func (b *FrozenBuilder) BeginSlot(i, nKeys int) error {
	if b.cur == nil {
		return fmt.Errorf("BeginSlot before BeginGroup")
	}
	if i < 1 || i > b.tau+1 {
		return fmt.Errorf("slot %d outside [1, %d]", i, b.tau+1)
	}
	// Each list holds at least one posting, so nKeys can never exceed the
	// arena space left; this bounds table allocation for corrupt inputs.
	if nKeys < 0 || int64(nKeys) > int64(len(b.f.arena))-int64(b.off) {
		return fmt.Errorf("slot %d key count %d exceeds remaining postings %d", i, nKeys, int64(len(b.f.arena))-int64(b.off))
	}
	if b.cur.tables[i-1] != nil {
		return fmt.Errorf("slot %d of length %d begun twice", i, b.cur.L)
	}
	b.cur.tables[i-1] = newSegTable(b.layout, nKeys)
	b.curSlot = i
	return nil
}

// AddList appends one posting list for the current slot: the postings go
// into the arena and the (hash → arena range) row into the slot table.
func (b *FrozenBuilder) AddList(hash uint64, postings []int32) error {
	if b.curSlot == 0 {
		return fmt.Errorf("AddList before BeginSlot")
	}
	if len(postings) == 0 {
		return fmt.Errorf("empty posting list in slot %d of length %d", b.curSlot, b.cur.L)
	}
	if int64(len(postings)) > int64(len(b.f.arena))-int64(b.off) {
		return fmt.Errorf("posting list overflows arena (%d postings, %d left)", len(postings), int64(len(b.f.arena))-int64(b.off))
	}
	for _, id := range postings {
		if id < 0 || int(id) >= len(b.ref) {
			return fmt.Errorf("posting id %d outside corpus of %d strings", id, len(b.ref))
		}
		if len(b.ref[id]) != b.cur.L {
			return fmt.Errorf("posting id %d has length %d, group is %d", id, len(b.ref[id]), b.cur.L)
		}
	}
	start := b.off
	copy(b.f.arena[start:], postings)
	b.off += uint32(len(postings))

	t := b.cur.tables[b.curSlot-1]
	if t == nil || !t.insert(hash, start, uint32(len(postings))) {
		return fmt.Errorf("slot %d of length %d received more lists than declared", b.curSlot, b.cur.L)
	}
	return nil
}

// Finish validates that the declared postings all arrived and returns the
// immutable index.
func (b *FrozenBuilder) Finish() (*Frozen, error) {
	if int(b.off) != len(b.f.arena) {
		return nil, fmt.Errorf("declared %d postings, received %d", len(b.f.arena), b.off)
	}
	f := b.f
	maxL := 0
	for l := range b.groups {
		if l > maxL {
			maxL = l
		}
	}
	f.groups = make([]*FrozenGroup, maxL+1)
	for l, g := range b.groups {
		f.groups[l] = g
	}
	f.account()
	b.f = nil
	return f, nil
}

// account fills in the size figures once the arena and every table are in
// place.
func (f *Frozen) account() {
	f.entries = int64(len(f.arena))
	f.bytes = int64(len(f.arena)) * 4
	for _, g := range f.groups {
		if g == nil {
			continue
		}
		f.bytes += frozenGroupOverhead
		for _, t := range g.tables {
			if t != nil {
				f.bytes += t.bytes()
			}
		}
	}
}

// frozenGroupOverhead is the approximate fixed cost of one group:
// FrozenGroup struct + segs + table headers. Table backing arrays are
// accounted exactly, per layout (unlike the mutable index's cost model).
const frozenGroupOverhead = 64
