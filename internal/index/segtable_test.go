package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// insertPostings stores one list through the two insert calls the builder
// uses: a list of one goes into its row, a longer one behind its count.
func insertPostings(tb *linearTable, h uint64, postings []int32) bool {
	if len(postings) == 1 {
		return tb.insert(h, rowSingle, postings[0])
	}
	off, ok := tb.insertList(h, uint32(len(postings)))
	if ok {
		copy(tb.posts[off:], postings)
	}
	return ok
}

// each visits every stored list in table order.
func (t *linearTable) each(fn func(postings []int32)) {
	for i := range t.rows {
		if r := &t.rows[i]; r.tag != 0 {
			fn(t.list(r))
		}
	}
}

// listsUnder returns every list tb stores under the tag of hash h, in probe
// order — the walk FrozenGroup.List makes when the corpus refutes a row.
func listsUnder(tb *linearTable, h uint64) [][]int32 {
	var got [][]int32
	for row, cell := tb.lookup(h, uint32(h)); row != nil; row, cell = tb.lookup(h, cell) {
		got = append(got, tb.list(row))
	}
	return got
}

// parentOrder is the oracle for table order: the cells the parent commit's
// 16-byte {hash, start, count} table gave the rows inserted under hashes,
// in that order — home cell uint32(h)&mask, linear probing, the table sized
// for nKeys — returned as the insert indices read in cell order. PJIX files
// of that time list a slot's postings in this order; none written now holds
// postings, and the order stays pinned only so that a build is reproducible.
func parentOrder(hashes []uint64, nKeys int) []int {
	size := 2
	for size < 2*nKeys {
		size *= 2
	}
	cells := make([]int, size)
	for k, h := range hashes {
		c := int(uint32(h)) & (size - 1)
		for cells[c] != 0 {
			c = (c + 1) & (size - 1)
		}
		cells[c] = k + 1
	}
	var order []int
	for _, k := range cells {
		if k != 0 {
			order = append(order, k-1)
		}
	}
	return order
}

// randomPostings returns a list of one posting about half the time and of
// up to nine otherwise, all tagged with k so no two lists are equal.
func randomPostings(rng *rand.Rand, k int) []int32 {
	lst := make([]int32, 1+rng.Intn(2)*(1+rng.Intn(8)))
	for j := range lst {
		lst[j] = int32(k*16 + j)
	}
	return lst
}

// TestSegTableForcedCollisions drives the table with manufactured tag
// collisions — equal hashes, and hashes that differ only in the bits a row
// does not keep — and checks the lookup contract: every list stored under
// an equal tag is reachable, in probe order, exactly once; each visits the
// lists in the parent table's order; and posts holds exactly the lists of
// two or more behind their counts.
func TestSegTableForcedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nKeys := 1 + rng.Intn(40)
		tb := newLinearTable(nKeys, 0)
		// Few distinct hashes over many inserts: every hash value
		// collides, both fully (equal h) and by slot (masked bits).
		ref := make(map[uint64][][]int32)
		var hashes []uint64
		var inserted [][]int32
		words := 0
		for k := 0; k < nKeys; k++ {
			h := uint64(rng.Intn(5)) * 0x9e3779b97f4a7c15 // tiny hash space
			lst := randomPostings(rng, k)
			if !insertPostings(&tb, h^uint64(rng.Intn(2))<<33, lst) { // bit 33: neither tag nor cell
				t.Fatalf("insert %d/%d refused", k, nKeys)
			}
			ref[h] = append(ref[h], lst)
			hashes, inserted = append(hashes, h), append(inserted, lst)
			if len(lst) > 1 {
				words += 1 + len(lst)
			}
		}
		if int(tb.keys) != nKeys || len(tb.posts) != words {
			t.Fatalf("keys=%d posts=%d words, want %d and %d", tb.keys, len(tb.posts), nKeys, words)
		}
		var visited [][]int32
		tb.each(func(postings []int32) { visited = append(visited, postings) })
		var want [][]int32
		for _, k := range parentOrder(hashes, nKeys) {
			want = append(want, inserted[k])
		}
		if !reflect.DeepEqual(visited, want) {
			t.Fatalf("each() visits %v, the parent table's order is %v", visited, want)
		}
		for h, want := range ref {
			// Linear probing never moves a row, so probe order is insert order.
			if got := listsUnder(&tb, h); !reflect.DeepEqual(got, want) {
				t.Fatalf("h=%x: lists %v reachable, want %v", h, got, want)
			}
		}
		// Absent tags must miss (30 random bits against five tags: the
		// seed produces no chance hit).
		for probe := 0; probe < 20; probe++ {
			h := rng.Uint64()
			if got := listsUnder(&tb, h); got != nil {
				t.Fatalf("found absent hash %x: %v", h, got)
			}
		}
	}
}

// TestSegTableSingles pins the row-resident list: it has len 1 and cap 1,
// so a caller's append copies instead of writing into the next row, and a
// table of nothing else never allocates posts.
func TestSegTableSingles(t *testing.T) {
	tb := newLinearTable(8, 0)
	for k := 0; k < 8; k++ {
		if !tb.insert(uint64(k)*0x9e3779b97f4a7c15, rowSingle, int32(100+k)) {
			t.Fatalf("insert %d refused", k)
		}
	}
	if cap(tb.posts) != 0 || tb.bytes() != int64(len(tb.rows))*8 {
		t.Fatalf("table of singles: posts %v, %d bytes for %d rows", tb.posts, tb.bytes(), len(tb.rows))
	}
	before := slices.Clone(tb.rows)
	tb.each(func(postings []int32) {
		if len(postings) != 1 || cap(postings) != 1 {
			t.Fatalf("single list %v has len %d cap %d", postings, len(postings), cap(postings))
		}
		if grown := append(postings, -1); &grown[0] == &postings[0] {
			t.Fatal("append to a single list wrote in place")
		}
	})
	if !slices.Equal(tb.rows, before) {
		t.Fatal("append to a single list changed the table")
	}
}

// TestSegTableRejectsOverflow checks that the table refuses inserts beyond
// its declared capacity instead of looping or overwriting, that a lookup
// still terminates on a table filled to that point, and that tableSize is
// the doubling it used to loop for, up to the 2^31 cells of 2^30 keys.
func TestSegTableRejectsOverflow(t *testing.T) {
	for _, nKeys := range []int{0, 1, 2, 3, 100} {
		tb := newLinearTable(nKeys, 0)
		n := 0
		for i := 0; i < 1000 && insertPostings(&tb, uint64(i)*0x9e3779b97f4a7c15, make([]int32, 1+i%2)); i++ {
			n++
		}
		if n < nKeys || n > len(tb.rows)/2 {
			t.Fatalf("table for %d keys (%d cells) accepted %d inserts", nKeys, len(tb.rows), n)
		}
		if nKeys > 0 && listsUnder(&tb, 12345) != nil {
			t.Fatalf("table for %d keys: absent hash found", nKeys)
		}
	}
	for nKeys := 0; nKeys < 70; nKeys++ {
		want := uint32(2)
		for want < 2*uint32(nKeys) {
			want *= 2
		}
		if got := tableSize(nKeys); got != want {
			t.Fatalf("tableSize(%d) = %d, want %d", nKeys, got, want)
		}
	}
	if got := tableSize(maxTableKeys); got != 1<<31 {
		t.Errorf("tableSize(2^30) = %d, want 2^31: the largest table (TestArenaLimits has the refusals)", got)
	}
}

// FuzzSegTableLookup fuzzes the table against a native-map reference at
// the table level, with hashes folded into a tiny space so full collisions
// and slot collisions are the norm rather than the exception, and then —
// through a fuzzed corpus — at the index level, where the frozen index must
// agree with the map index on every segment lookup.
func FuzzSegTableLookup(f *testing.F) {
	f.Add([]byte("hello\nworld\nhelp\nheld"), uint8(2), uint8(3))
	f.Add([]byte("aaaa\naaab\nabab\nbbbb"), uint8(1), uint8(0))
	f.Add([]byte("\x00\x01\x02collide\ncollide\ncollide"), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, tauRaw, hashBitsRaw uint8) {
		// Table-level: interpret data bytes as (hash, list) insert streams.
		hashBits := uint64(1)<<(hashBitsRaw%4) - 1 // fold hashes into 0..7 values
		if nKeys := min(len(data), 128); nKeys > 0 {
			tb := newLinearTable(nKeys, 0)
			ref := make(map[uint64][][]int32)
			for k := 0; k < nKeys; k++ {
				h := (uint64(data[k]) & hashBits) * 0x9e3779b97f4a7c15
				lst := make([]int32, data[k]%7+1)
				for j := range lst {
					lst[j] = int32(k*8 + j)
				}
				if !insertPostings(&tb, h, lst) {
					t.Fatalf("insert refused below declared capacity")
				}
				ref[h] = append(ref[h], lst)
			}
			for h, want := range ref {
				if got := listsUnder(&tb, h); !reflect.DeepEqual(got, want) {
					t.Fatalf("h=%x: lists %v reachable, want %v", h, got, want)
				}
			}
		}

		// Index-level: corpus lines → map index vs its freeze.
		tau := int(tauRaw % 5)
		corpus := fuzzCorpus(data)
		x, fz := buildBoth(corpus, tau)
		if fz.Entries() != x.Entries() {
			t.Fatalf("entries %d, map %d", fz.Entries(), x.Entries())
		}
		for _, l := range x.Lengths() {
			g := x.Group(l)
			fg := fz.Group(l)
			for i := 1; i <= tau+1; i++ {
				for w, want := range g.segs[i-1] {
					if got := fg.List(i, w); !reflect.DeepEqual(got, want) {
						t.Fatalf("l=%d slot=%d key=%q: frozen %v map %v", l, i, w, got, want)
					}
				}
			}
		}
	})
}
