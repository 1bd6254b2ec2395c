package index

import "math/bits"

// maxTableKeys is the most rows one table holds: 2^31 cells at load <= 0.5.
const maxTableKeys = 1 << 30

// tableSize returns the power-of-two cell count for nKeys <= maxTableKeys,
// which indexable checks first, at load <= 0.5.
func tableSize(nKeys int) uint32 {
	return 2 << bits.Len32(uint32(max(nKeys, 1)-1))
}

// frozenRow is one table cell. The tag holds the occupied bit, the single
// bit and the top 30 bits of the segment hash, which say something the cell
// index, its low bits, does not. val is the posting itself when the list
// has one entry (the single bit) and otherwise the offset, read as a
// uint32, of the list in the table's posts.
type frozenRow struct {
	tag uint32
	val [1]int32
}

const (
	rowOccupied, rowSingle = 1 << 31, 1 << 30
	frozenRowBytes         = 8 // the exact size of one row: tag (4) + val (4)
)

// rowTag returns the tag of the row of a list of two or more under hash h.
func rowTag(h uint64) uint32 { return rowOccupied | uint32(h>>34) }

// linearTable is one frozen segment-slot hash table: an immutable map from
// segment hash to posting list, built once and probed forever. Collisions
// resolve by linear probing at load factor <= 0.5, where probe chains are
// so short that this layout beat both 8-way buckets and robin-hood
// displacement (BENCH_hotpath.json). A list of one lives in its row; the
// others lie in posts, each behind its count — at most 1.5 words per string
// of the slot, so every offset fits a row. The zero tag marks a free cell;
// the zero table is a slot that got no lists.
type linearTable struct {
	mask  uint32
	keys  uint32 // rows stored
	rows  []frozenRow
	posts []int32
}

// newLinearTable returns an empty table sized for nKeys insertions whose
// lists of two or more take nPosts words, counts included.
func newLinearTable(nKeys, nPosts int) linearTable {
	if nKeys <= 0 {
		return linearTable{}
	}
	size := tableSize(nKeys)
	return linearTable{mask: size - 1, rows: make([]frozenRow, size), posts: make([]int32, 0, nPosts)}
}

// lookup walks h's probe sequence from cell (uint32(h)&mask to begin, the
// returned next to continue) to the first row stored under h's tag and
// returns it with the cell after it; row is nil once the chain ends. Now
// and then two distinct segments share a 30-bit tag: the caller confirms
// each row against the corpus and continues from next on a mismatch.
func (t *linearTable) lookup(h uint64, cell uint32) (row *frozenRow, next uint32) {
	tag := rowTag(h)
	for {
		row = &t.rows[cell&t.mask]
		cell++
		if row.tag == 0 {
			return nil, cell
		}
		if row.tag&^rowSingle == tag {
			return row, cell
		}
	}
}

// list returns the posting list of a stored row: the row's own val, len 1
// and cap 1, or the counted range of posts.
func (t *linearTable) list(row *frozenRow) []int32 {
	if row.tag&rowSingle != 0 {
		return row.val[:]
	}
	off := uint32(row.val[0])
	return t.posts[off+1:][:uint32(t.posts[off])]
}

// insert stores one row: single is rowSingle and val the list's only
// posting, or 0 and val the list's offset in posts (insertList). It returns
// false when the row would take the table past half full — more keys
// arrived than the table was sized for — so a lookup always meets a free
// cell.
func (t *linearTable) insert(h uint64, single uint32, val int32) bool {
	if 2*int(t.keys) >= len(t.rows) {
		return false
	}
	cell := uint32(h) & t.mask
	for t.rows[cell].tag != 0 {
		cell = (cell + 1) & t.mask
	}
	t.rows[cell] = frozenRow{tag: rowTag(h) | single, val: [1]int32{val}}
	t.keys++
	return true
}

// insertList stores the row of a list of count >= 2 postings and appends
// the list, count first, to posts; the caller fills posts[off:off+count].
func (t *linearTable) insertList(h uint64, count uint32) (off uint32, ok bool) {
	at := len(t.posts)
	if !t.insert(h, 0, int32(at)) {
		return 0, false
	}
	t.posts = append(append(t.posts, int32(count)), make([]int32, count)...)
	return uint32(at) + 1, true
}

// bytes is the retained size of the table's backing arrays.
func (t *linearTable) bytes() int64 {
	return int64(len(t.rows))*frozenRowBytes + int64(len(t.posts))*postingBytes
}
