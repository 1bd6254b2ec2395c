package index

import (
	"fmt"
	"math"
	"slices"

	"passjoin/internal/tasks"
)

// BuildFrozen bulk-builds the frozen index of a complete corpus: every
// string of ref with at least tau+1 bytes is indexed under its position in
// ref. It answers every lookup exactly as the map Index does after New + Add
// of the same strings (ids ascending), without the map index in between.
//
// The length groups L^i_l of §3.2 share nothing, so the build is one task
// per (length, slot), handed largest first to workers goroutines
// (tasks.LargestFirst):
// a task counts the distinct segments of its slot in a scratch table, then
// allocates the slot's table and posting lists at their exact size and
// places the postings, ascending by id within a list (slotBuilder.build).
// Tasks share nothing, so nothing is merged afterwards.
func BuildFrozen(ref []string, tau, workers int) (*Frozen, error) {
	ids, off := idsByLength(ref)
	return buildFrozen(ref, ids, off, tau, workers, hash64)
}

// LengthOffsets counts the strings of ref by length: off[l] of them are
// shorter than l, so a corpus sorted by length holds those of length l at
// [off[l], off[l+1]), and len(off) is the largest length plus two.
func LengthOffsets(ref []string) (off []int) {
	maxLen := 0
	for _, s := range ref {
		maxLen = max(maxLen, len(s))
	}
	off = make([]int, maxLen+2)
	for _, s := range ref {
		off[len(s)+1]++
	}
	for l := 1; l < len(off); l++ {
		off[l] += off[l-1]
	}
	return off
}

// idsByLength counting-sorts the ids of ref by string length: those of
// length l are ids[off[l]:off[l+1]], ascending, with off = LengthOffsets(ref).
func idsByLength(ref []string) (ids []int32, off []int) {
	off = LengthOffsets(ref)
	ids = make([]int32, len(ref))
	next := slices.Clone(off)
	for id, s := range ref {
		ids[next[len(s)]] = int32(id)
		next[len(s)]++
	}
	return ids, off
}

// identity returns ids[:0] extended with lo, lo+1, …, hi-1.
func identity(ids []int32, lo, hi int) []int32 {
	ids = ids[:0]
	for id := lo; id < hi; id++ {
		ids = append(ids, int32(id))
	}
	return ids
}

// checkArena reports whether postings postings over a corpus of nStrings
// strings fit the frozen form: a posting is an int32 id, and a table row
// addresses its list with a uint32 offset.
func checkArena(nStrings int, postings int64) error {
	if int64(nStrings) > math.MaxInt32 {
		return fmt.Errorf("corpus of %d strings exceeds the %d a posting id can name", nStrings, math.MaxInt32)
	}
	if postings > math.MaxUint32 {
		return fmt.Errorf("%d postings exceed the %d a table row's offset can address", postings, uint32(math.MaxUint32))
	}
	return nil
}

// FirstIndexed returns the least length an index over off's corpus
// partitions at threshold tau: tau+1, or one past the longest string if that
// is less — no string being that long — which is what keeps tau+1, and every
// l+1 of a loop that starts here, from wrapping at thresholds near
// math.MaxInt. off[FirstIndexed(off, tau)] strings are too short to index.
func FirstIndexed(off []int, tau int) int {
	return min(tau, len(off)-2) + 1
}

// indexable validates a build over ref — off its per-length offsets — and
// returns the number of strings long enough to partition.
func indexable(ref []string, off []int, tau int) (int, error) {
	if tau < 0 {
		return 0, fmt.Errorf("negative threshold %d", tau)
	}
	first := FirstIndexed(off, tau)
	for l := first; l+1 < len(off); l++ { // a slot has at most a row per string of its length
		if n := off[l+1] - off[l]; n > maxTableKeys {
			return 0, fmt.Errorf("%d strings of length %d exceed the %d rows a slot table holds", n, l, maxTableKeys)
		}
	}
	n := len(ref) - off[first]
	return n, checkArena(len(ref), int64(n)*int64(tau+1)) // tau+1 wraps only where n is 0
}

// largestGroup returns the size of the largest length group a build over
// off indexes: what a slotBuilder's scratch must hold.
func largestGroup(off []int, tau int) (n int) {
	for l := FirstIndexed(off, tau); l+1 < len(off); l++ {
		n = max(n, off[l+1]-off[l])
	}
	return n
}

// buildTask is one (length, slot) of the bulk build.
type buildTask struct {
	g    *FrozenGroup
	slot int     // 0-based
	ids  []int32 // the strings of length g.L, ascending
}

// buildFrozen builds the index from the ids sorted by length — those of
// length l are ids[off[l]:off[l+1]], ascending — with the segment hash as a
// parameter, so a test can force two distinct segments onto one 64-bit hash.
func buildFrozen(ref []string, ids []int32, off []int, tau, workers int, hash func(string) uint64) (*Frozen, error) {
	indexed, err := indexable(ref, off, tau)
	if err != nil {
		return nil, err
	}
	f := &Frozen{tau: tau, ref: ref}
	if indexed == 0 {
		return f, nil
	}
	f.entries = int64(indexed) * int64(tau+1)
	f.groups = make([]*FrozenGroup, len(off)-1)
	var slots []buildTask
	for l := tau + 1; l < len(f.groups); l++ {
		if off[l+1] == off[l] {
			continue
		}
		g := newGroup(ref, tau, l)
		f.groups[l] = g
		for slot := 0; slot <= tau; slot++ {
			slots = append(slots, buildTask{g: g, slot: slot, ids: ids[off[l]:off[l+1]]})
		}
	}
	largest := largestGroup(off, tau)
	size := func(k int) int { return len(slots[k].ids) }
	err = tasks.LargestFirst(workers, len(slots), size, func(int) func(int) bool {
		w := newSlotBuilder(ref, hash, largest)
		return func(k int) bool {
			w.build(slots[k].g, slots[k].slot, slots[k].ids)
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	f.account()
	return f, nil
}

// buildCell is one cell of a slotBuilder's scratch table: a distinct
// segment of the slot under construction.
type buildCell struct {
	hash  uint64
	first int32  // the smallest id posted under the segment
	count uint32 // postings counted; 0 marks a free cell
	next  uint32 // where its next posting goes, once the list has a start
}

// slotBuilder is one build worker: the corpus, the segment hash and the
// scratch it reuses from slot to slot.
type slotBuilder struct {
	ref    []string
	hash   func(string) uint64
	cells  []buildCell
	cellOf []uint32 // per id of the slot, the cell of its segment
	// free, a Window's, holds the arrays of released groups for the tables
	// built next; nil (BuildFrozen) allocates every table at its exact size.
	free *tableFree
}

// newSlotBuilder returns a builder whose scratch, allocated once, holds any
// slot of up to maxIDs strings.
func newSlotBuilder(ref []string, hash func(string) uint64, maxIDs int) slotBuilder {
	return slotBuilder{ref: ref, hash: hash, cells: make([]buildCell, tableSize(maxIDs)), cellOf: make([]uint32, maxIDs)}
}

// build builds slot slot of g over ids, the strings of length g.L in
// ascending order. Nothing is sorted. A first pass counts the postings of
// every distinct segment in the scratch table — a cell is claimed by hash
// and confirmed by content, so two segments under one 64-bit hash stay two
// cells — and with them the segments (keys) and those posted more than
// once (multi). The table is sized for keys and its
// posts for the len(ids)−keys+multi postings not alone on their list plus
// a count each. A second pass, over the ids in the same order, inserts a
// segment's row the first time it meets the segment — the id itself if it
// is the only one — and else appends the id to the list: every list ascends.
func (w *slotBuilder) build(g *FrozenGroup, slot int, ids []int32) {
	sg := g.segs[slot]
	lo, hi := sg.Pos-1, sg.Pos-1+sg.Len
	size := int(tableSize(len(ids)))
	mask := uint32(size - 1)
	cells, cellOf := w.cells[:size], w.cellOf[:len(ids)]
	clear(cells)
	keys, multi := 0, 0
	for k, id := range ids {
		seg := w.ref[id][lo:hi]
		h := w.hash(seg)
		c := uint32(h) & mask
		for {
			cell := &cells[c]
			if cell.count == 0 {
				*cell = buildCell{hash: h, first: id, count: 1}
				keys++
				break
			}
			if cell.hash == h && w.ref[cell.first][lo:hi] == seg {
				if cell.count++; cell.count == 2 {
					multi++
				}
				break
			}
			c = (c + 1) & mask
		}
		cellOf[k] = c
	}
	table := w.free.take(keys, len(ids)-keys+2*multi)
	for k, id := range ids {
		cell := &cells[cellOf[k]]
		if cell.count == 1 {
			table.insert(cell.hash, rowSingle, id) // sized for keys: cannot be full
			continue
		}
		if cell.first == id {
			cell.next, _ = table.insertList(cell.hash, cell.count)
		}
		table.posts[cell.next] = id
		cell.next++
	}
	g.tables[slot] = table
}

// tableFree is a Window's free lists: the rows and posts arrays of the
// groups it released, which the tables it builds next take before
// allocating — rows arrays by their power-of-two capacity, posts arrays by
// theirs. Neither list holds more than limit arrays, what the window's τ+1
// groups of τ+1 tables hold live, so a scan whose groups only grow keeps
// no more than a window's worth: the smallest array goes first.
type tableFree struct {
	rows  freeList[frozenRow]
	posts freeList[int32]
	limit int
}

// take returns an empty table sized for nKeys insertions and nPosts posting
// words, as newLinearTable does, made of free arrays where one fits: the
// smallest rows array of the table's size or larger, resliced to it and
// cleared, and the smallest posts array of capacity nPosts or more. A nil
// list allocates.
func (p *tableFree) take(nKeys, nPosts int) linearTable {
	if p == nil || nKeys <= 0 {
		return newLinearTable(nKeys, nPosts)
	}
	size := tableSize(nKeys)
	t := linearTable{mask: size - 1, rows: p.rows.take(int(size)), posts: p.posts.take(nPosts)}
	if t.rows == nil {
		t.rows = make([]frozenRow, size)
	} else {
		t.rows = t.rows[:size]
		clear(t.rows)
	}
	if t.posts == nil {
		t.posts = make([]int32, 0, nPosts)
	}
	return t
}

// put adds the arrays of a released table to the lists.
func (p *tableFree) put(t linearTable) {
	p.rows.put(t.rows[:cap(t.rows)], p.limit)
	p.posts.put(t.posts[:0], p.limit)
}

// freeList is one of tableFree's lists.
type freeList[T any] struct{ arrays [][]T }

// take removes and returns the array of least capacity n or more, or nil if
// n is 0 or no array is that large.
func (l *freeList[T]) take(n int) []T {
	k := l.smallest(n)
	if n == 0 || k < 0 {
		return nil
	}
	a := l.arrays[k]
	l.arrays = slices.Delete(l.arrays, k, k+1) // clears the vacated slot: the list keeps nothing it lent
	return a
}

// put adds a, if it has room for anything, and drops the smallest array
// once the list holds more than limit.
func (l *freeList[T]) put(a []T, limit int) {
	if cap(a) == 0 {
		return
	}
	if l.arrays = append(l.arrays, a); len(l.arrays) > limit {
		k := l.smallest(0)
		l.arrays = slices.Delete(l.arrays, k, k+1)
	}
}

// smallest returns the index of the array of least capacity n or more, or
// −1 if there is none.
func (l *freeList[T]) smallest(n int) int {
	best := -1
	for k, a := range l.arrays {
		if cap(a) >= n && (best < 0 || cap(a) < cap(l.arrays[best])) {
			best = k
		}
	}
	return best
}

// Window is the index of a sequential join scan (§3.2) over a corpus
// sorted by length: a Frozen that holds only the length groups the scan's
// window covers. Slide bulk-builds a group when the window reaches its
// length and releases it once the window has passed: at most τ+1 groups
// (2τ+1 for R≠S) are ever live. A released group's tables go to the
// window's free lists, where the groups built after it find them, and the
// group itself is emptied — a pointer to it kept past the Slide that
// released it answers nothing, and never reads a successor's arrays.
//
// One goroutine at a time may call Slide, and while it does, other
// goroutines may read through Frozen the groups that it neither releases nor
// builds: those already built that stay inside [lo, hi]. The caller orders
// the two: a group is read only after the Slide that built it has returned,
// and released only once its last reader is through.
type Window struct {
	f    *Frozen
	off  []int
	w    slotBuilder
	free tableFree
	ids  []int32
	// Groups below low have been released and groups below next built
	// (or skipped: no strings, or never inside the window).
	low, next int
	// live counts the groups in the window and bytes/entries what a map
	// index holding them would report (Frozen.MapBytes); peak* are the
	// values at the largest bytes seen.
	live, peakLive         int
	bytes, entries         int64
	peakBytes, peakEntries int64
}

// NewWindow returns the empty window over ref, sorted by length, with
// off = LengthOffsets(ref).
func NewWindow(ref []string, off []int, tau int) (*Window, error) {
	if _, err := indexable(ref, off, tau); err != nil {
		return nil, err
	}
	f := &Frozen{tau: tau, ref: ref, groups: make([]*FrozenGroup, len(off)-1)}
	largest := largestGroup(off, tau)
	w := &Window{f: f, off: off, w: newSlotBuilder(ref, hash64, largest), ids: make([]int32, 0, largest), next: FirstIndexed(off, tau)}
	tables := min(tau, len(off)) + 1 // a group's: τ+1, which is less than any indexed length
	w.free.limit = tables * tables
	w.w.free = &w.free
	return w, nil
}

// Frozen returns the index the window maintains; only the groups inside
// the window answer.
func (w *Window) Frozen() *Frozen { return w.f }

// Slide moves the window to the lengths [lo, hi]: it releases the groups
// below lo, their arrays to the free lists, and then builds those up to hi
// that are not built yet. Both bounds only ever grow.
func (w *Window) Slide(lo, hi int) {
	groups, tau := w.f.groups, w.f.tau
	for ; w.low < min(lo, len(groups)); w.low++ {
		if g := groups[w.low]; g != nil {
			w.account(g, -1)
			for i := range g.tables {
				w.free.put(g.tables[i])
				g.tables[i] = linearTable{}
			}
			groups[w.low] = nil
		}
	}
	for w.next = max(w.next, lo); w.next <= min(hi, len(groups)-1); w.next++ {
		l := w.next
		w.ids = identity(w.ids, w.off[l], w.off[l+1])
		if len(w.ids) == 0 {
			continue
		}
		g := newGroup(w.f.ref, tau, l)
		for slot := 0; slot <= tau; slot++ {
			w.w.build(g, slot, w.ids)
		}
		groups[l] = g
		w.account(g, 1)
	}
	w.peakLive = max(w.peakLive, w.live)
	if w.bytes > w.peakBytes {
		w.peakBytes, w.peakEntries = w.bytes, w.entries
	}
}

// account adds (sign 1) or removes (sign −1) group g in the window's tallies.
func (w *Window) account(g *FrozenGroup, sign int) {
	entries := int64(w.off[g.L+1]-w.off[g.L]) * int64(w.f.tau+1)
	w.live += sign
	w.entries += int64(sign) * entries
	w.bytes += int64(sign) * (entries*postingBytes + g.mapKeyBytes())
}

// Peak returns the largest number of groups that were live at once, and
// the modeled map-index size (see Frozen.MapBytes) and posting count of
// the window at its largest.
func (w *Window) Peak() (groups int, mapBytes, entries int64) {
	return w.peakLive, w.peakBytes, w.peakEntries
}
