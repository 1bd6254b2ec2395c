package index

// tableSize returns the power-of-two cell count for nKeys at load <= 0.5.
func tableSize(nKeys int) uint32 {
	size := uint32(2)
	for size < 2*uint32(nKeys) {
		size *= 2
	}
	return size
}

// frozenRow is one table cell: the segment hash and its arena range.
type frozenRow struct {
	hash  uint64
	start uint32
	count uint32
}

// frozenRowBytes is the exact size of one row: hash (8) + start (4) +
// count (4).
const frozenRowBytes = 16

// linearTable is one frozen segment-slot hash table: an immutable map from
// 64-bit segment hash to an arena range, built once and probed forever.
// Rows are array-of-structs and collisions resolve by linear probing at
// load factor <= 0.5, where probe chains are so short that this layout
// beat both 8-way buckets and robin-hood displacement (BENCH_hotpath.json).
// Posting lists are never empty, so count == 0 marks a free cell. The zero
// value is the table of a slot that received no lists.
type linearTable struct {
	mask uint32
	keys uint32 // rows stored
	rows []frozenRow
}

// newLinearTable returns an empty table sized for nKeys insertions.
func newLinearTable(nKeys int) linearTable {
	if nKeys <= 0 {
		return linearTable{}
	}
	size := tableSize(nKeys)
	return linearTable{mask: size - 1, rows: make([]frozenRow, size)}
}

// lookup walks h's probe sequence from cell (uint32(h)&mask to begin, the
// returned next to continue) to the first row stored under hash h and
// returns it with the cell after it; row is nil once the chain ends. Full
// 64-bit collisions between distinct segments are astronomically rare but
// possible, so the caller confirms each row against the corpus and
// continues from next on a mismatch.
func (t *linearTable) lookup(h uint64, cell uint32) (row *frozenRow, next uint32) {
	for {
		row = &t.rows[cell&t.mask]
		cell++
		if row.count == 0 {
			return nil, cell
		}
		if row.hash == h {
			return row, cell
		}
	}
}

// insert stores one row (count >= 1). It returns false when the row would
// take the table past half full — the builder declared fewer keys than
// arrived — so a lookup always meets a free cell.
func (t *linearTable) insert(h uint64, start, count uint32) bool {
	if 2*int(t.keys) >= len(t.rows) {
		return false
	}
	cell := uint32(h) & t.mask
	for t.rows[cell].count != 0 {
		cell = (cell + 1) & t.mask
	}
	t.rows[cell] = frozenRow{hash: h, start: start, count: count}
	t.keys++
	return true
}

// each visits every stored row in table order (the snapshot writer).
func (t *linearTable) each(fn func(start, count uint32)) {
	for i := range t.rows {
		if r := &t.rows[i]; r.count != 0 {
			fn(r.start, r.count)
		}
	}
}

// bytes is the retained size of the table's backing array.
func (t *linearTable) bytes() int64 {
	return int64(len(t.rows)) * frozenRowBytes
}
