package index

import (
	"math/rand"
	"reflect"
	"testing"
)

// refRange is one (start, count) reference entry for the table-level tests.
type refRange struct{ start, count uint32 }

// rowsUnder returns every row tb stores under hash h, in probe order — the
// walk FrozenGroup.List makes when the corpus refutes a row.
func rowsUnder(tb *linearTable, h uint64) []refRange {
	var got []refRange
	for row, cell := tb.lookup(h, uint32(h)); row != nil; row, cell = tb.lookup(h, cell) {
		got = append(got, refRange{row.start, row.count})
	}
	return got
}

// TestSegTableForcedCollisions drives the table with manufactured FULL
// 64-bit hash collisions — the case the corpus-level tests can essentially
// never produce — and checks the lookup contract: every row stored under
// an equal hash must be reachable, in probe order, exactly once.
func TestSegTableForcedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nKeys := 1 + rng.Intn(40)
		tb := newLinearTable(nKeys)
		// Few distinct hashes over many inserts: every hash value
		// collides, both fully (equal h) and by slot (masked bits).
		ref := make(map[uint64][]refRange)
		for k := 0; k < nKeys; k++ {
			h := uint64(rng.Intn(5)) * 0x9e3779b97f4a7c15 // tiny hash space
			r := refRange{start: uint32(k * 3), count: 1 + uint32(rng.Intn(9))}
			if !tb.insert(h, r.start, r.count) {
				t.Fatalf("insert %d/%d refused", k, nKeys)
			}
			ref[h] = append(ref[h], r)
		}
		n := 0
		tb.each(func(uint32, uint32) { n++ })
		if n != nKeys || int(tb.keys) != nKeys {
			t.Fatalf("each() visits %d rows, keys=%d, want %d", n, tb.keys, nKeys)
		}
		for h, want := range ref {
			// Linear probing never moves a row, so probe order is insert order.
			if got := rowsUnder(&tb, h); !reflect.DeepEqual(got, want) {
				t.Fatalf("h=%x: rows %v reachable, want %v", h, got, want)
			}
		}
		// Absent hashes must miss.
		for probe := 0; probe < 20; probe++ {
			h := rng.Uint64() | 1<<63 // disjoint from the tiny hash space
			if got := rowsUnder(&tb, h); got != nil {
				t.Fatalf("found absent hash %x: %v", h, got)
			}
		}
	}
}

// TestSegTableRejectsOverflow checks that the table refuses inserts beyond
// its declared capacity instead of looping or overwriting, and that a
// lookup still terminates on a table filled to that point.
func TestSegTableRejectsOverflow(t *testing.T) {
	for _, nKeys := range []int{0, 1, 2, 3, 100} {
		tb := newLinearTable(nKeys)
		n := 0
		for i := 0; i < 1000 && tb.insert(uint64(i)*0x9e3779b97f4a7c15, uint32(i), 1); i++ {
			n++
		}
		if n < nKeys || n > len(tb.rows)/2 {
			t.Fatalf("table for %d keys (%d cells) accepted %d inserts", nKeys, len(tb.rows), n)
		}
		if nKeys > 0 && rowsUnder(&tb, 12345) != nil {
			t.Fatalf("table for %d keys: absent hash found", nKeys)
		}
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
		// Table-level: interpret data bytes as (hash, count) insert streams.
		hashBits := uint64(1)<<(hashBitsRaw%4) - 1 // fold hashes into 0..7 values
		if nKeys := min(len(data), 128); nKeys > 0 {
			tb := newLinearTable(nKeys)
			ref := make(map[uint64][]refRange)
			for k := 0; k < nKeys; k++ {
				h := (uint64(data[k]) & hashBits) * 0x9e3779b97f4a7c15
				r := refRange{start: uint32(k), count: uint32(data[k])%7 + 1}
				if !tb.insert(h, r.start, r.count) {
					t.Fatalf("insert refused below declared capacity")
				}
				ref[h] = append(ref[h], r)
			}
			for h, want := range ref {
				if got := rowsUnder(&tb, h); !reflect.DeepEqual(got, want) {
					t.Fatalf("h=%x: rows %v reachable, want %v", h, got, want)
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
