package index

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"passjoin/internal/dataset"
	"passjoin/internal/partition"
)

// randomCorpus synthesizes strings over a small alphabet so segments
// collide often — the regime that stresses both the map index and the
// frozen tables' collision confirmation.
func randomCorpus(rng *rand.Rand, n, maxLen int) []string {
	const alphabet = "abcd"
	out := make([]string, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		b := make([]byte, l)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = string(b)
	}
	return out
}

// buildBoth indexes every partitionable string of corpus in the mutable
// index, the independent reference, and bulk-builds the frozen one beside it
// on one worker (through Index.Freeze, whose posting-count check thereby
// runs in every test that builds both).
func buildBoth(corpus []string, tau int) (*Index, *Frozen) {
	x := New(tau)
	for id, s := range corpus {
		if len(s) >= tau+1 {
			x.Add(int32(id), s)
		}
	}
	return x, x.Freeze(corpus)
}

// Lengths returns the set of live group lengths (unsorted).
func (x *Index) Lengths() []int {
	out := make([]int, 0, len(x.groups))
	for l := range x.groups {
		out = append(out, l)
	}
	return out
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

// Slot calls fn for every posting list of the i-th segment slot (1-based),
// in table order: how tests compare the layout of two builds.
func (g *FrozenGroup) Slot(i int, fn func(postings []int32)) {
	g.tables[i-1].each(fn)
}

// TestFrozenMatchesMapIndex is the equivalence property: for every live
// (length, slot) and every probe string — both real segment keys and
// random misses — the frozen index must return exactly the map index's
// posting list.
func TestFrozenMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tau := range []int{0, 1, 2, 3, 5} {
		for trial := 0; trial < 20; trial++ {
			corpus := randomCorpus(rng, 30+rng.Intn(200), 2+rng.Intn(24))
			x, fz := buildBoth(corpus, tau)
			if fz.Tau() != tau {
				t.Fatalf("frozen tau = %d, want %d", fz.Tau(), tau)
			}
			if fz.Entries() != x.Entries() {
				t.Fatalf("tau=%d: frozen entries %d, map %d", tau, fz.Entries(), x.Entries())
			}
			for _, l := range x.Lengths() {
				g := x.Group(l)
				fg := fz.Group(l)
				if fg == nil {
					t.Fatalf("tau=%d: frozen missing group for length %d", tau, l)
				}
				for i := 1; i <= tau+1; i++ {
					for w, want := range g.segs[i-1] {
						if got := fg.List(i, w); !reflect.DeepEqual(got, want) {
							t.Fatalf("tau=%d l=%d slot=%d key=%q: frozen %v, map %v", tau, l, i, w, got, want)
						}
					}
					// Probe misses: random strings of the slot's segment
					// length, most of which are not indexed.
					li := partition.SegLen(l, tau, i)
					for probe := 0; probe < 20; probe++ {
						b := make([]byte, li)
						for j := range b {
							b[j] = "abcd"[rng.Intn(4)]
						}
						w := string(b)
						want := g.segs[i-1][w]
						got := fg.List(i, w)
						if len(want) == 0 && len(got) != 0 {
							t.Fatalf("tau=%d l=%d slot=%d key=%q: frozen found %v, map empty", tau, l, i, w, got)
						}
						if len(want) != 0 && !reflect.DeepEqual(got, want) {
							t.Fatalf("tau=%d l=%d slot=%d key=%q: frozen %v, map %v", tau, l, i, w, got, want)
						}
					}
				}
			}
			// Lengths with no group must stay empty on both sides.
			for l := tau + 1; l < 40; l++ {
				if x.Group(l) == nil && fz.Group(l) != nil {
					t.Fatalf("tau=%d: frozen has spurious group for length %d", tau, l)
				}
			}
		}
	}
}

// TestFrozenEmpty freezes an empty index.
func TestFrozenEmpty(t *testing.T) {
	x := New(2)
	fz := x.Freeze(nil)
	if fz.Entries() != 0 || fz.Group(3) != nil || len(fz.Lengths()) != 0 {
		t.Fatalf("empty freeze: %+v", fz)
	}
}

// fuzzCorpus splits fuzz input into at most 64 non-empty lines.
func fuzzCorpus(data []byte) []string {
	var corpus []string
	start := 0
	for i := 0; i <= len(data) && len(corpus) < 64; i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				corpus = append(corpus, string(data[start:i]))
			}
			start = i + 1
		}
	}
	return corpus
}

// FuzzFrozenLookup drives the equivalence property from fuzzed corpora and
// probes: whatever the corpus shape, frozen lookups must agree with the
// map index on every slot for both the probe string's prefixes and all
// real segment keys.
func FuzzFrozenLookup(f *testing.F) {
	f.Add([]byte("hello\nworld\nhelp\nheld"), uint8(2), []byte("hel"))
	f.Add([]byte("aaaa\naaab\nabab\nbbbb\naa"), uint8(1), []byte("aa"))
	f.Add([]byte(""), uint8(0), []byte("x"))
	f.Fuzz(func(t *testing.T, data []byte, tauRaw uint8, probe []byte) {
		tau := int(tauRaw % 5)
		corpus := fuzzCorpus(data)
		x, fz := buildBoth(corpus, tau)
		if fz.Entries() != x.Entries() {
			t.Fatalf("entries: frozen %d map %d", fz.Entries(), x.Entries())
		}
		p := string(probe)
		// Every lookup is also made through a ProbeBatch: the probe's are
		// its own batch, the real keys are laid end to end in one string.
		var keys strings.Builder
		var ofProbe, ofKeys []lookup
		for _, l := range x.Lengths() {
			g := x.Group(l)
			fg := fz.Group(l)
			if fg == nil {
				t.Fatalf("missing frozen group for length %d", l)
			}
			for i := 1; i <= tau+1; i++ {
				li := partition.SegLen(l, tau, i)
				if len(p) >= li {
					w := p[:li]
					if got, want := fg.List(i, w), g.segs[i-1][w]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("l=%d slot=%d probe=%q: frozen %v map %v", l, i, w, got, want)
					}
					ofProbe = append(ofProbe, lookup{fg, i, 1})
				}
				for w, want := range g.segs[i-1] {
					if got := fg.List(i, w); !reflect.DeepEqual(got, want) {
						t.Fatalf("l=%d slot=%d key=%q: frozen %v map %v", l, i, w, got, want)
					}
					ofKeys = append(ofKeys, lookup{fg, i, keys.Len() + 1})
					keys.WriteString(w)
				}
			}
		}
		requireBatchMatchesList(t, p, ofProbe)
		requireBatchMatchesList(t, keys.String(), ofKeys)
	})
}

// TestPostingsAscendAfterFreeze pins the invariant a self join's cut of a
// list at the probing string's own id relies on: ids added in ascending order (the joins add in sorted-scan
// order, Matcher in insertion order) give strictly ascending posting
// lists in the map index, and the bulk build posts the same lists — so the
// first posting at or past a bound ends the list.
func TestPostingsAscendAfterFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tau := range []int{0, 1, 3} {
		corpus := randomCorpus(rng, 400, 12)
		x, fz := buildBoth(corpus, tau)
		ascending := func(where string, lst []int32) {
			t.Helper()
			for k := 1; k < len(lst); k++ {
				if lst[k-1] >= lst[k] {
					t.Fatalf("tau=%d %s: postings %v not strictly ascending", tau, where, lst)
				}
			}
		}
		lists, visited := 0, int64(0)
		for _, l := range fz.Lengths() {
			fg := fz.Group(l)
			for i := 1; i <= tau+1; i++ {
				fg.Slot(i, func(postings []int32) {
					lists++
					visited += int64(len(postings))
					ascending("frozen", postings)
					pos, n := fg.Seg(i)
					w := corpus[postings[0]][pos-1 : pos-1+n]
					got := x.Group(l).List(i, w)
					ascending("map", got)
					if !reflect.DeepEqual(got, postings) {
						t.Fatalf("tau=%d len=%d slot=%d %q: map %v, frozen %v", tau, l, i, w, got, postings)
					}
				})
			}
		}
		// The walk over the tables must meet every posting once.
		if lists == 0 || visited != fz.Entries() {
			t.Fatalf("tau=%d: Slot visited %d lists with %d postings, want %d postings", tau, lists, visited, fz.Entries())
		}
	}
}

// TestHash64 pins what the tables need from the segment hash across the
// branches of its word-at-a-time loads (1–3, 4–7, 8–15, 16 and 17+ bytes):
// at every length a flipped byte at the first, middle or last position, a
// trailing NUL and swapped halves all change the value, no two of a few
// thousand short keys collide, and on real segments the low bits spread —
// no slot table of 100 000 author names has a long probe chain (at load
// <= 0.5 a uniform hash gives a mean displacement near 0.27).
func TestHash64(t *testing.T) {
	seen := map[uint64]string{}
	note := func(s string) {
		t.Helper()
		h := hash64(s)
		if prev, dup := seen[h]; dup && prev != s {
			t.Fatalf("hash64(%q) == hash64(%q) == %#x", s, prev, h)
		}
		seen[h] = s
	}
	rng := rand.New(rand.NewSource(64))
	for n := 0; n <= 40; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		s := string(b)
		note(s)
		note(s + "\x00")
		note(strings.Repeat("\x00", n))
		for _, i := range []int{0, n / 2, n - 1} {
			if n == 0 {
				break
			}
			for _, flip := range []byte{1, 0x80} {
				c := []byte(s)
				c[i] ^= flip
				note(string(c))
			}
		}
		if h := n / 2; h > 0 && s[:h] != s[n-h:] {
			note(s[n-h:] + s[h:n-h] + s[:h])
		}
		if hash64(s) != hash64(string(b)) {
			t.Fatalf("hash64(%q) is not a function of the bytes", s)
		}
	}
	for a := 0; a < 256; a++ { // every 1-byte key, and 2- and 3-byte keys around it
		note(string([]byte{byte(a)}))
		for b := 0; b < 16; b++ {
			note(string([]byte{byte(a), byte(b)}))
			note(string([]byte{byte(b), 7, byte(a)}))
		}
	}

	corpus := dataset.Author(100000, 1)
	fz, err := BuildFrozen(corpus, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A row's probe chain is its distance from the cell its hash names; the
	// row keeps only the hash's top bits, so the segment is hashed again.
	longest, total, rows := uint32(0), uint32(0), uint32(0)
	for _, l := range fz.Lengths() {
		g := fz.Group(l)
		for i := range g.tables {
			tb := &g.tables[i]
			pos, n := g.Seg(i + 1)
			for c := range tb.rows {
				if r := &tb.rows[c]; r.tag != 0 {
					h := hash64(corpus[tb.list(r)[0]][pos-1 : pos-1+n])
					if r.tag&^rowSingle != rowTag(h) {
						t.Fatalf("l=%d slot=%d cell %d: tag %#x, segment hashes to %#x", l, i+1, c, r.tag, rowTag(h))
					}
					d := (uint32(c) - uint32(h)) & tb.mask
					longest, total, rows = max(longest, d), total+d, rows+1
				}
			}
		}
	}
	if mean := float64(total) / float64(rows); longest > 32 || mean > 0.4 {
		t.Fatalf("probe chains over %d rows: longest %d, mean %.3f; want <= 32 and <= 0.4", rows, longest, mean)
	}
}

// everyBuilder builds the index of corpus — sorted by length, as a Window
// needs it — every way the package can: BuildFrozen on one and two workers,
// and a Window slid over every length.
func everyBuilder(t *testing.T, corpus []string, tau int) map[string]*Frozen {
	t.Helper()
	out := map[string]*Frozen{}
	for name, workers := range map[string]int{"BuildFrozen/1": 1, "BuildFrozen/2": 2} {
		fz, err := BuildFrozen(corpus, tau, workers)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fz
	}
	off := LengthOffsets(corpus)
	w, err := NewWindow(corpus, off, tau)
	if err != nil {
		t.Fatal(err)
	}
	w.Slide(0, len(off))
	out["Window"] = w.Frozen()
	return out
}

// tagTwins searches for two distinct 4-byte segments that the real hash64
// sends to the same 30-bit row tag and the same home cell of a 4-cell
// table: everything a row keeps of a hash. About 2^16 candidates do it.
func tagTwins(t *testing.T) (a, b string) {
	seen := map[uint64]string{}
	for n := 0; n < 1<<24; n++ {
		s := string([]byte{' ' + byte(n&63), ' ' + byte(n>>6&63), ' ' + byte(n>>12&63), ' ' + byte(n>>18&63)})
		h := hash64(s)
		key := h>>34<<2 | h&3
		if twin, ok := seen[key]; ok {
			return twin, s
		}
		seen[key] = s
	}
	t.Fatal("no two of 2^24 segments share a tag and a home cell")
	return "", ""
}

// TestTagCollision puts two distinct segments with one tag and one home
// cell into one slot — as a list and a single in either order, and as two
// singles — through every builder: the table keeps two rows under the tag,
// and List, which hashes for real, finds each and never the other's.
func TestTagCollision(t *testing.T) {
	a, b := tagTwins(t)
	if a == b || rowTag(hash64(a)) != rowTag(hash64(b)) || hash64(a) == hash64(b) {
		t.Fatalf("twins %q %q: hashes %#x %#x", a, b, hash64(a), hash64(b))
	}
	for _, corpus := range [][]string{
		{a + "zzzz", b + "zzzz", a + "yyyy"},
		{b + "zzzz", a + "zzzz", a + "yyyy"},
		{a + "zzzz", b + "yyyy"},
	} {
		want := map[string][]int32{}
		for id, s := range corpus {
			want[s[:4]] = append(want[s[:4]], int32(id))
		}
		for name, fz := range everyBuilder(t, corpus, 1) {
			g := fz.Group(8)
			if under := listsUnder(&g.tables[0], hash64(a)); len(under) != 2 {
				t.Fatalf("%s %q: lists %v under the shared tag, want two", name, corpus, under)
			}
			// One batch holds both twins, in either order, around a miss.
			got := requireBatchMatchesList(t, a+b+"none"+a, []lookup{{g, 1, 1}, {g, 1, 5}, {g, 1, 9}, {g, 1, 13}})
			wantLists := [][]int32{want[a], want[b], nil, want[a]}
			if !reflect.DeepEqual(got, wantLists) {
				t.Fatalf("%s %q: lists of %q, %q, none, %q = %v, want %v", name, corpus, a, b, a, got, wantLists)
			}
			// And one block does: four strings put the one question.
			got = requireBlockMatchesList(t, new(BlockResolver), g, 1, 1, []string{a + "1234", b + "1234", "none1234", a + "5678"})
			if !reflect.DeepEqual(got, wantLists) {
				t.Fatalf("%s %q: a block's lists of %q, %q, none, %q = %v, want %v", name, corpus, a, b, a, got, wantLists)
			}
		}
	}
}

// TestSinglesOnlySlot: a slot whose segments are all distinct holds its
// postings in the rows and allocates no posting slice, whoever built it; a
// list it returns has len 1 and cap 1, so appending to it cannot write into
// the next row; and the tables' size is their rows and the one counted list.
func TestSinglesOnlySlot(t *testing.T) {
	corpus := []string{"abcxxx", "defxxx", "ghixxx"}
	for name, fz := range everyBuilder(t, corpus, 1) {
		g := fz.Group(6)
		if cap(g.tables[0].posts) != 0 || !slices.Equal(g.tables[1].posts, []int32{3, 0, 1, 2}) {
			t.Fatalf("%s: posts %v and %v, want none and [3 0 1 2]", name, g.tables[0].posts, g.tables[1].posts)
		}
		if b0, b1 := g.tables[0].bytes(), g.tables[1].bytes(); b0 != 8*frozenRowBytes || b1 != 2*frozenRowBytes+4*postingBytes {
			t.Fatalf("%s: tables of %d and %d bytes, want 8 rows and 2 rows + 4 words", name, b0, b1)
		}
		for id, s := range corpus {
			lst := g.List(1, s[:3])
			if !slices.Equal(lst, []int32{int32(id)}) || cap(lst) != 1 {
				t.Fatalf("%s: List(%q) = %v with cap %d, want [%d] with cap 1", name, s[:3], lst, cap(lst), id)
			}
			_ = append(lst, -1)
		}
		for id, s := range corpus {
			if lst := g.List(1, s[:3]); !slices.Equal(lst, []int32{int32(id)}) {
				t.Fatalf("%s: after the appends List(%q) = %v", name, s[:3], lst)
			}
		}
	}
}

// lookup is one lookup of a probe string: the substring at 1-based position
// pos against the i-th slot of g (nil: a length without a group).
type lookup struct {
	g      *FrozenGroup
	i, pos int
}

// lookupResolvers are the three ways to answer the lookups of a probe string:
// List, one at a time; a ProbeBatch driven the way the prober drives it —
// Add until it reports full, Resolve, read the lists of the hits, Reset, and
// once more for the rest; and a BlockResolver, one resolver for all of them,
// each lookup a block of the one string (requireBlockMatchesList has the
// blocks of many).
var lookupResolvers = map[string]func(t testing.TB, s string, lookups []lookup) [][]int32{
	"List": func(t testing.TB, s string, lookups []lookup) [][]int32 {
		out := make([][]int32, len(lookups))
		for k, q := range lookups {
			w := ""
			if q.g != nil {
				_, n := q.g.Seg(q.i)
				w = s[q.pos-1 : q.pos-1+n]
			}
			out[k] = q.g.List(q.i, w)
		}
		return out
	},
	"ProbeBatch": func(t testing.TB, s string, lookups []lookup) [][]int32 {
		var b ProbeBatch
		out := make([][]int32, len(lookups))
		done := 0
		flush := func() {
			b.Resolve(s)
			if hits := b.Hits(); !slices.IsSorted(hits) || len(slices.Compact(slices.Clone(hits))) != len(hits) {
				t.Fatalf("hits %v of a batch of %d are not ascending", hits, b.Len())
			}
			for _, k := range b.Hits() {
				g, i, pos, lst := b.At(int(k))
				if got := (lookup{g, i, pos}); got != lookups[done+int(k)] || len(lst) == 0 {
					t.Fatalf("lookup %d came back as %+v with list %v, added as %+v", done+int(k), got, lst, lookups[done+int(k)])
				}
				out[done+int(k)] = lst
			}
			done += b.Len()
			b.Reset()
		}
		for k, q := range lookups {
			if full := b.Add(q.g, q.i, q.pos); full != (b.Len() == ProbeBatchSize) || b.Len() != k%ProbeBatchSize+1 {
				t.Fatalf("after %d lookups: Add reported full=%v at Len %d", k+1, full, b.Len())
			} else if full {
				flush()
			}
		}
		flush()
		if b.Len() != 0 {
			t.Fatalf("Len %d after Reset", b.Len())
		}
		return out
	},
	"BlockResolver": func(t testing.TB, s string, lookups []lookup) [][]int32 {
		var b BlockResolver
		out := make([][]int32, len(lookups))
		for k, q := range lookups {
			b.Resolve(q.g, q.i, q.pos, []string{s})
			if hits := b.Hits(); len(hits) == 1 && hits[0] == 0 {
				out[k] = b.List(0)
			} else if len(hits) != 0 {
				t.Fatalf("lookup %d: hits %v of a block of one string", k, hits)
			}
		}
		return out
	},
}

// requireBlockMatchesList asks the block resolver the question (g, i, pos)
// of strs the way a join does — BlockBatchSize strings to a Resolve, one
// resolver throughout — and fails unless every string gets the slice of the
// index that List returns for its substring there — the same list, not an
// equal one. It returns the lists.
func requireBlockMatchesList(t testing.TB, b *BlockResolver, g *FrozenGroup, i, pos int, strs []string) [][]int32 {
	got := make([][]int32, len(strs))
	for lo := 0; lo < len(strs); lo += BlockBatchSize {
		b.Resolve(g, i, pos, strs[lo:min(lo+BlockBatchSize, len(strs))])
		hits := b.Hits()
		if !slices.IsSorted(hits) || len(slices.Compact(slices.Clone(hits))) != len(hits) {
			t.Fatalf("hits %v are not ascending", hits)
		}
		for _, k := range hits {
			if got[lo+int(k)] = b.List(k); len(got[lo+int(k)]) == 0 {
				t.Fatalf("string %d is a hit with an empty list", lo+int(k))
			}
		}
	}
	for k, s := range strs {
		var want []int32
		if g != nil {
			_, n := g.Seg(i)
			want = g.List(i, s[pos-1:pos-1+n])
		}
		if len(got[k]) != len(want) || (len(want) > 0 && &got[k][0] != &want[0]) {
			t.Fatalf("slot %d pos %d, string %d of %d (%q): block answers %v, List %v", i, pos, k, len(strs), s, got[k], want)
		}
	}
	return got
}

// requireBatchMatchesList takes the lookups of s through every resolver and
// fails unless each lookup gets the same slice of the index from all of them
// — the same list, not an equal one — and returns those lists.
func requireBatchMatchesList(t testing.TB, s string, lookups []lookup) [][]int32 {
	t.Helper()
	want := lookupResolvers["List"](t, s, lookups)
	for name, resolve := range lookupResolvers {
		got := resolve(t, s, lookups)
		for k, q := range lookups {
			if len(got[k]) != len(want[k]) || (len(want[k]) > 0 && &got[k][0] != &want[k][0]) {
				t.Fatalf("%q lookup %d of %d (slot %d, pos %d): %s answers %v, List %v", s, k, len(lookups), q.i, q.pos, name, got[k], want[k])
			}
		}
	}
	return want
}

// everyLookup enumerates more than a prober ever asks of fz for s: every
// length within tau of len(s) — one lookup against a nil group where the
// length has none — every slot, every position the segment fits at.
func everyLookup(fz *Frozen, s string) []lookup {
	var out []lookup
	for l := max(len(s)-fz.Tau(), 0); l <= len(s)+fz.Tau(); l++ {
		g := fz.Group(l)
		if g == nil {
			out = append(out, lookup{nil, 1, 1})
			continue
		}
		for i := 1; i <= fz.Tau()+1; i++ {
			_, n := g.Seg(i)
			for pos := 1; pos-1+n <= len(s); pos++ {
				out = append(out, lookup{g, i, pos})
			}
		}
	}
	return out
}

// TestProbeBatchMatchesList is the batch's differential test: on samples of
// the two benchmark corpora, at thresholds from exact match to tau 8 and
// through every builder, a ProbeBatch answers every lookup of a probe string
// — corpus strings, which hit at their own segments, the same with a byte
// changed, and strings too short to probe with — exactly as List does; so it
// does at batch sizes around one and two full batches, against a slot that
// was given no lists, and against a group that was given no slots. (The tag
// twins of TestTagCollision and the forced 64-bit collision of
// TestBuildFrozenHashCollision go through the same body in their own tests.)
func TestProbeBatchMatchesList(t *testing.T) {
	byLength := func(corpus []string) []string {
		slices.SortStableFunc(corpus, func(a, b string) int { return len(a) - len(b) })
		return corpus
	}
	for _, c := range []struct {
		name   string
		corpus []string
	}{
		{"Author", byLength(dataset.Author(3000, 1))},
		{"AuthorTitle", byLength(dataset.AuthorTitle(400, 1))},
	} {
		probes := []string{"", "a"}
		for k := 0; k < len(c.corpus); k += len(c.corpus) / 16 {
			s := c.corpus[k]
			probes = append(probes, s, s[:len(s)/2]+"#"+s[len(s)/2+1:])
		}
		for _, tau := range []int{0, 1, 2, 8} {
			for name, fz := range everyBuilder(t, c.corpus, tau) {
				hits := 0
				for _, s := range probes {
					for _, lst := range requireBatchMatchesList(t, s, everyLookup(fz, s)) {
						if len(lst) > 0 {
							hits++
						}
					}
				}
				if fromCorpus := len(probes)/2 - 1; hits < fromCorpus {
					t.Fatalf("%s tau=%d %s: %d hits, yet %d probe strings are corpus strings", c.name, tau, name, hits, fromCorpus)
				}
			}
		}
	}

	corpus := byLength(dataset.Author(3000, 1))
	fz, err := BuildFrozen(corpus, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := corpus[len(corpus)/2]
	lookups := everyLookup(fz, s)
	for _, n := range []int{0, 1, 31, 32, 33, 64, 65} {
		requireBatchMatchesList(t, s, lookups[:n])
	}
}

// TestBlockResolverMatchesList is the block resolver's differential test,
// the counterpart of TestProbeBatchMatchesList for the join's batch shape:
// on samples of the two benchmark corpora, at thresholds from exact match to
// tau 8 and through every builder, every question a join can ask — each
// group, each slot, each position the segment fits at, of runs of
// equal-length strings from the group's own length, the one below and the
// two at the ends of its window — is answered for the whole run exactly as
// List answers it string by string;
// at runs of one string, of one short of a batch, a batch, and a batch and
// one more; by one resolver throughout, so nothing may survive from the
// batch before. A slot that was given no lists and a length without a group
// answer no hits.
func TestBlockResolverMatchesList(t *testing.T) {
	byLength := func(corpus []string) []string {
		slices.SortStableFunc(corpus, func(a, b string) int { return len(a) - len(b) })
		return corpus
	}
	var b BlockResolver
	for _, c := range []struct {
		name   string
		corpus []string
	}{
		{"Author", byLength(dataset.Author(3000, 1))},
		{"AuthorTitle", byLength(dataset.AuthorTitle(400, 1))},
	} {
		off := LengthOffsets(c.corpus)
		// Per length, a run that hits (the corpus's own strings) and then
		// one that mostly does not (the same with a byte changed).
		runOf := func(L, n int) []string {
			if L < 0 || L+1 >= len(off) {
				return nil
			}
			own := c.corpus[off[L]:min(off[L]+n, off[L+1])]
			run := slices.Clone(own)
			for _, s := range own[:len(own)/2] {
				run = append(run, s[:L/2]+"#"+s[L/2+1:])
			}
			return run[:min(n, len(run))]
		}
		for _, tau := range []int{0, 1, 2, 8} {
			for name, fz := range everyBuilder(t, c.corpus, tau) {
				hits, asked := 0, 0
				for l := 0; l+1 < len(off); l++ {
					g := fz.Group(l)
					for _, L := range slices.Compact([]int{l - tau, l - 1, l, l + tau}) {
						for _, n := range []int{1, BlockBatchSize - 1, BlockBatchSize, BlockBatchSize + 1} {
							run := runOf(L, n)
							if len(run) == 0 {
								continue
							}
							if g == nil {
								requireBlockMatchesList(t, &b, nil, 1, 1, run)
								continue
							}
							for i := 1; i <= tau+1; i++ {
								_, li := g.Seg(i)
								for pos := 1; pos-1+li <= L; pos++ {
									for _, lst := range requireBlockMatchesList(t, &b, g, i, pos, run) {
										asked++
										if len(lst) > 0 {
											hits++
										}
									}
								}
							}
						}
					}
				}
				if hits == 0 || hits == asked {
					t.Fatalf("%s tau=%d %s: %d of %d lookups hit; the runs hold strings that must and strings that must not", c.name, tau, name, hits, asked)
				}
			}
		}
		// A group none of whose slots was built — a slot without lists —
		// answers nothing, whatever the resolver held before.
		l := len(c.corpus[len(c.corpus)/2])
		empty := newGroup(c.corpus, 2, l)
		for i := 1; i <= 3; i++ {
			for _, lst := range requireBlockMatchesList(t, &b, empty, i, 1, runOf(l, BlockBatchSize+1)) {
				if lst != nil {
					t.Fatalf("%s: slot %d of a group without tables answered %v", c.name, i, lst)
				}
			}
		}
	}
}
