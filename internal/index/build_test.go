package index

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"passjoin/internal/dataset"
	"passjoin/internal/partition"
)

// requireSameLists fails unless got answers every lookup the way the map
// index x does — the same groups, and for every (length, slot) the identical
// ascending list under every indexed segment and under probe strings that
// are mostly misses — and lays every table out as want, the one-worker build
// of the same corpus, does: the same lists in the same cells, however many
// workers built got.
func requireSameLists(t testing.TB, corpus []string, tau int, x *Index, want, got *Frozen, probes []string) {
	t.Helper()
	if got.Tau() != tau || got.Entries() != x.Entries() || got.Bytes() != want.Bytes() {
		t.Fatalf("tau=%d: built tau=%d entries=%d bytes=%d, frozen map index entries=%d bytes=%d",
			tau, got.Tau(), got.Entries(), got.Bytes(), x.Entries(), want.Bytes())
	}
	if got.MapBytes() != x.Bytes() || want.MapBytes() != x.Bytes() {
		t.Fatalf("tau=%d: MapBytes built=%d frozen=%d, Index.Bytes=%d", tau, got.MapBytes(), want.MapBytes(), x.Bytes())
	}
	if !slices.Equal(got.Lengths(), want.Lengths()) {
		t.Fatalf("tau=%d: built lengths %v, want %v", tau, got.Lengths(), want.Lengths())
	}
	for _, l := range want.Lengths() {
		g, bg := x.Group(l), got.Group(l)
		for i := 1; i <= tau+1; i++ {
			var order, wantOrder [][]int32
			want.Group(l).Slot(i, func(postings []int32) { wantOrder = append(wantOrder, postings) })
			bg.Slot(i, func(postings []int32) {
				order = append(order, postings)
				if !slices.IsSorted(postings) {
					t.Fatalf("tau=%d l=%d slot=%d: postings %v not ascending", tau, l, i, postings)
				}
			})
			if len(order) != len(g.segs[i-1]) {
				t.Fatalf("tau=%d l=%d slot=%d: %d rows, map has %d keys", tau, l, i, len(order), len(g.segs[i-1]))
			}
			if !reflect.DeepEqual(order, wantOrder) {
				t.Fatalf("tau=%d l=%d slot=%d: table order %v, the one-worker build's %v", tau, l, i, order, wantOrder)
			}
			for w, lst := range g.segs[i-1] {
				if built := bg.List(i, w); !slices.Equal(built, lst) {
					t.Fatalf("tau=%d l=%d slot=%d key=%q: built %v, map %v", tau, l, i, w, built, lst)
				}
			}
			li := partition.SegLen(l, tau, i)
			for _, p := range probes {
				if len(p) < li {
					continue
				}
				if built, lst := bg.List(i, p[:li]), g.segs[i-1][p[:li]]; !slices.Equal(built, lst) {
					t.Fatalf("tau=%d l=%d slot=%d probe=%q: built %v, map %v", tau, l, i, p[:li], built, lst)
				}
			}
		}
	}
}

// TestBuildFrozenMatchesAddFreeze is the builder's differential test:
// random corpora with duplicates and strings too short to partition, the
// empty corpus, every tau in 0..4 and 1, 2 and 8 workers.
func TestBuildFrozenMatchesAddFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for tau := 0; tau <= 4; tau++ {
		for trial := 0; trial < 12; trial++ {
			var corpus []string
			if trial > 0 { // trial 0 is the empty corpus
				corpus = randomCorpus(rng, 20+rng.Intn(300), 1+rng.Intn(20))
				for k := len(corpus) / 4; k > 0; k-- { // duplicates, at scattered ids
					corpus[rng.Intn(len(corpus))] = corpus[rng.Intn(len(corpus))]
				}
				corpus = append(corpus, "", "a")
			}
			x, want := buildBoth(corpus, tau)
			probes := randomCorpus(rng, 40, 12)
			for _, workers := range []int{1, 2, 8} {
				got, err := BuildFrozen(corpus, tau, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireSameLists(t, corpus, tau, x, want, got, probes)
			}
		}
	}
	if _, err := BuildFrozen([]string{"abc"}, -1, 1); err == nil {
		t.Error("negative tau accepted")
	}
}

// TestWindowSlides drives a Window the way the two serial joins do — the
// self join's [L−τ, L] and the R≠S join's [L−τ, L+τ], the latter with jumps
// over lengths no probe reaches — over a length-sorted corpus: inside the
// window every group answers like the whole index, outside it nothing
// does, at most τ+1 (2τ+1) groups are live, and the peak figures are those
// of a map index that held the same strings.
//
// The window builds its groups from the arrays of those it released, so it
// runs over two corpora: random lengths, and a ramp whose groups grow from 4
// strings to 568 and shrink again to 4, where a released array is taken by
// a larger group and by a smaller one. A group captured before the Slide that
// releases it must answer nothing afterwards — not its old lists, and not
// those of the group now holding its arrays.
func TestWindowSlides(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := append(randomCorpus(rng, 600, 24), "", "a")
	var ramp []string
	for l, n := 4, 4.0; ; l++ {
		if l > 25 {
			n /= 2 // 22 lengths up, then halving: 568, 284, …, 4
		} else if l > 4 {
			n = math.Ceil(n * 1.25)
		}
		if n < 4 {
			break
		}
		for range int(n) {
			b := make([]byte, l)
			for j := range b {
				b[j] = "abcd"[rng.Intn(4)]
			}
			ramp = append(ramp, string(b))
		}
	}
	for _, c := range []struct {
		name   string
		corpus []string
		reuse  bool // must see a released array taken by a larger group and by a smaller one
	}{{"random", random, false}, {"ramp", ramp, true}} {
		corpus := c.corpus
		slices.SortStableFunc(corpus, func(a, b string) int { return len(a) - len(b) })
		_, off := idsByLength(corpus) // sorted by length: the ids are the identity
		maxLen := len(off) - 2
		for tau := 0; tau <= 3; tau++ {
			x, want := buildBoth(corpus, tau)
			full, err := BuildFrozen(corpus, tau, 2)
			if err != nil {
				t.Fatal(err)
			}
			requireSameLists(t, corpus, tau, x, want, full, nil)
			for _, ahead := range []int{0, tau} { // self join, R≠S join
				w, err := NewWindow(corpus, off, tau)
				if err != nil {
					t.Fatal(err)
				}
				var wantPeak, wantEntries int64
				released := map[any]int{} // a released group's arrays, to the size of the group
				var byLarger, bySmaller bool
				for L := 0; L <= maxLen+tau+1; L += 1 + rng.Intn(1+2*ahead) {
					before, arrays := map[int]*FrozenGroup{}, map[int][]any{}
					for l := 0; l <= maxLen; l++ {
						if g := w.Frozen().Group(l); g != nil {
							before[l], arrays[l] = g, tableArrays(g)
						}
					}
					w.Slide(L-tau, L+ahead)
					for l, g := range before {
						if w.Frozen().Group(l) == g {
							continue
						}
						for _, a := range arrays[l] {
							released[a] = off[l+1] - off[l]
						}
						requireEmpty(t, g, full.Group(l), corpus)
					}
					live := 0
					for l := 0; l <= maxLen; l++ {
						g, fg := w.Frozen().Group(l), full.Group(l)
						if l < L-tau || l > L+ahead || fg == nil {
							if g != nil {
								t.Fatalf("%s tau=%d window [%d,%d]: group %d is live", c.name, tau, L-tau, L+ahead, l)
							}
							continue
						}
						// A jump can carry the window past a length before it
						// was ever built; it is then built on entry all the same.
						if g == nil {
							t.Fatalf("%s tau=%d window [%d,%d]: group %d missing", c.name, tau, L-tau, L+ahead, l)
						}
						live++
						if before[l] == nil {
							n := off[l+1] - off[l]
							for _, a := range tableArrays(g) {
								if m, ok := released[a]; ok {
									byLarger, bySmaller = byLarger || n > m, bySmaller || n < m
									delete(released, a)
								}
							}
						}
						for i := 1; i <= tau+1; i++ {
							fg.Slot(i, func(postings []int32) {
								pos, n := fg.Seg(i)
								seg := corpus[postings[0]][pos-1 : pos-1+n]
								if got := g.List(i, seg); !slices.Equal(got, postings) {
									t.Fatalf("%s tau=%d l=%d slot=%d %q: window %v, whole index %v", c.name, tau, l, i, seg, got, postings)
								}
							})
						}
					}
					if live > tau+ahead+1 {
						t.Fatalf("%s tau=%d window [%d,%d]: %d live groups", c.name, tau, L-tau, L+ahead, live)
					}
					lo, hi := min(max(L-tau, 0), maxLen+1), min(L+ahead, maxLen)+1
					if part, _ := BuildFrozen(corpus[off[lo]:max(off[hi], off[lo])], tau, 1); part.MapBytes() > wantPeak && part.Entries() > 0 {
						wantPeak, wantEntries = part.MapBytes(), part.Entries()
					}
				}
				groups, bytes, entries := w.Peak()
				if groups > tau+ahead+1 || bytes != wantPeak || entries != wantEntries {
					t.Fatalf("%s tau=%d ahead=%d: peak %d groups, %d B, %d entries; want <= %d groups, %d B, %d entries",
						c.name, tau, ahead, groups, bytes, entries, tau+ahead+1, wantPeak, wantEntries)
				}
				if c.reuse && (!byLarger || !bySmaller) {
					t.Fatalf("%s tau=%d ahead=%d: released arrays taken by a larger group %v, by a smaller one %v; want both",
						c.name, tau, ahead, byLarger, bySmaller)
				}
			}
		}
	}
}

// tableArrays returns the first element of every backing array g's tables
// hold, which names the array.
func tableArrays(g *FrozenGroup) (out []any) {
	for i := range g.tables {
		t := &g.tables[i]
		if cap(t.rows) > 0 {
			out = append(out, &t.rows[:1][0])
		}
		if cap(t.posts) > 0 {
			out = append(out, &t.posts[:1][0])
		}
	}
	return out
}

// requireEmpty fails unless g, a released group, answers no segment of
// the strings full's group of its length indexes.
func requireEmpty(t *testing.T, g, full *FrozenGroup, corpus []string) {
	t.Helper()
	for i := 1; i <= len(g.segs); i++ {
		full.Slot(i, func(postings []int32) {
			pos, n := full.Seg(i)
			if got := g.List(i, corpus[postings[0]][pos-1:pos-1+n]); got != nil {
				t.Fatalf("released group %d slot %d: lists %v", g.L, i, got)
			}
		})
	}
}

// FuzzBuildFrozen is FuzzFrozenLookup for the bulk builder: whatever the
// corpus, threshold and worker count, it must answer like the map index.
func FuzzBuildFrozen(f *testing.F) {
	f.Add([]byte("hello\nworld\nhelp\nheld\nhello"), uint8(2), uint8(1), []byte("hel"))
	f.Add([]byte("aaaa\naaab\nabab\nbbbb\naa\naaaa"), uint8(1), uint8(2), []byte("aa"))
	f.Add([]byte(""), uint8(0), uint8(8), []byte("x"))
	f.Fuzz(func(t *testing.T, data []byte, tauRaw, workers uint8, probe []byte) {
		tau := int(tauRaw % 5)
		corpus := fuzzCorpus(data)
		x, want := buildBoth(corpus, tau)
		got, err := BuildFrozen(corpus, tau, int(workers%9))
		if err != nil {
			t.Fatal(err)
		}
		requireSameLists(t, corpus, tau, x, want, got, []string{string(probe)})
	})
}

// TestBuildFrozenHashCollision forces two distinct segments of one slot
// onto the same 64-bit hash, and then onto two hashes that differ only in a
// bit a row keeps no trace of (bit 33: same tag, same home cell): either
// way they must stay two rows, each with its own ascending list, and List
// must return the one whose content matches.
func TestBuildFrozenHashCollision(t *testing.T) {
	// tau=1, length 4: slot 1 is bytes 0..1. "ab" and "cd" collide there;
	// their ids interleave, so a build that told segments apart by hash
	// alone would merge the two lists.
	corpus := []string{"abxx", "cdxx", "abyy", "efzz", "cdyy", "abzz"}
	ids, off := idsByLength(corpus)
	for _, flip := range []uint64{0, 1 << 33} {
		collide := func(w string) uint64 {
			if w == "cd" {
				return hash64("ab") ^ flip
			}
			return hash64(w)
		}
		for _, workers := range []int{1, 2} {
			f, err := buildFrozen(corpus, ids, off, 1, workers, collide)
			if err != nil {
				t.Fatal(err)
			}
			g := f.Group(4)
			lists := map[string][]int32{}
			g.Slot(1, func(postings []int32) {
				lists[corpus[postings[0]][:2]] = slices.Clone(postings)
			})
			want := map[string][]int32{"ab": {0, 2, 5}, "cd": {1, 4}, "ef": {3}}
			if under := len(listsUnder(&g.tables[0], hash64("ab"))); len(lists) != len(want) || under != 2 {
				t.Fatalf("flip=%#x workers=%d: rows %v, %d of them under tag(ab); want %v with two under tag(ab)", flip, workers, lists, under, want)
			}
			for w, lst := range want {
				if !slices.Equal(lists[w], lst) {
					t.Fatalf("flip=%#x workers=%d: segment %q posted %v, want %v", flip, workers, w, lists[w], lst)
				}
			}
			// Lookups hash with the real function: "ab" must get its own
			// list whichever of the two colliding rows the probe meets first.
			// (And a batch must: both colliding segments and two others.)
			got := requireBatchMatchesList(t, "abxxcd", []lookup{{g, 1, 1}, {g, 2, 3}, {g, 1, 5}, {g, 1, 3}})
			if !slices.Equal(got[0], want["ab"]) || !slices.Equal(got[1], []int32{0, 1}) || got[3] != nil {
				t.Fatalf("flip=%#x workers=%d: lists of ab, xx (slot 2), xx (slot 1) = %v, %v, %v; want %v, [0 1], none", flip, workers, got[0], got[1], got[3], want["ab"])
			}
			// And a block must: "ab" on either side of "cd", which sits in
			// the table under ab's hash and so is not found under its own.
			got = requireBlockMatchesList(t, new(BlockResolver), g, 1, 1, []string{"ab12", "cd12", "ef12", "ab34"})
			if !slices.Equal(got[0], want["ab"]) || got[1] != nil || !slices.Equal(got[2], want["ef"]) || !slices.Equal(got[3], want["ab"]) {
				t.Fatalf("flip=%#x workers=%d: a block's lists of ab, cd, ef, ab = %v; want %v, none, %v, %v", flip, workers, got, want["ab"], want["ef"], want["ab"])
			}
		}
	}
}

// TestBuildPanicSurfacesAsError: a panic in a build task — here the segment
// hash — comes back as an error from the build, on the caller's goroutine
// and on worker goroutines alike (tasks.LargestFirst), never as a crash.
func TestBuildPanicSurfacesAsError(t *testing.T) {
	corpus := []string{"abcd", "abce", "xyzw", "abcdef"}
	ids, off := idsByLength(corpus)
	for _, workers := range []int{1, 2} {
		fz, err := buildFrozen(corpus, ids, off, 1, workers, func(s string) uint64 {
			if s == "zw" {
				panic("hash blew up")
			}
			return hash64(s)
		})
		if fz != nil || err == nil || !strings.Contains(err.Error(), "hash blew up") {
			t.Fatalf("workers=%d: index %v, err = %v, want surfaced task panic", workers, fz, err)
		}
	}
}

// TestArenaLimits pins the overflow checks the builders share, on counts
// alone: ids are int32, a row's list offset a uint32 and a table's cells
// are counted in one, so a corpus past any of them must be refused instead
// of wrapping (or, the table, never returning).
func TestArenaLimits(t *testing.T) {
	if err := checkArena(1000, math.MaxUint32); err != nil {
		t.Errorf("largest addressable arena refused: %v", err)
	}
	if err := checkArena(1000, math.MaxUint32+1); err == nil {
		t.Error("2^32 postings accepted")
	}
	if err := checkArena(math.MaxInt32, 0); err != nil {
		t.Errorf("largest id space refused: %v", err)
	}
	if math.MaxInt > math.MaxInt32 {
		big := math.MaxInt32
		if err := checkArena(big+1, 0); err == nil {
			t.Error("corpus of 2^31 strings accepted")
		}
	}
	// A slot has a row per distinct segment, so at most one per string of
	// its length: 2^30 strings of one length are the most a table is sized
	// for (see TestSegTableRejectsOverflow), and the builder asks first.
	if _, err := indexable(nil, []int{0, 0, maxTableKeys}, 0); err != nil {
		t.Errorf("group of 2^30 strings refused: %v", err)
	}
	if _, err := indexable(nil, []int{0, 0, maxTableKeys + 1}, 0); err == nil {
		t.Error("group of 2^30+1 strings accepted")
	}
}

// TestFrozenFootprintPinned is the deterministic size gate: the frozen
// index of the two benchmark corpora (bench/'s join-short and join-long;
// index.frozen_bytes_per_string there is Bytes over the corpus size) must
// not grow past what the 8-byte rows brought it to — 55.6 and 189.1 bytes a
// string — whatever a later change does to the tables.
func TestFrozenFootprintPinned(t *testing.T) {
	for _, c := range []struct {
		name           string
		corpus         []string
		tau            int
		entries, bytes int64
	}{
		{"Author 100k", dataset.Author(100000, 1), 2, 300000, 5_700_000},
		{"AuthorTitle 20k", dataset.AuthorTitle(20000, 1), 8, 180000, 3_900_000},
	} {
		fz, err := BuildFrozen(c.corpus, c.tau, 2)
		if err != nil {
			t.Fatal(err)
		}
		if fz.Entries() != c.entries || fz.Bytes() > c.bytes {
			t.Errorf("%s at tau=%d: %d entries in %d bytes, want %d in at most %d",
				c.name, c.tau, fz.Entries(), fz.Bytes(), c.entries, c.bytes)
		}
	}
}

// BenchmarkBuildFrozen compares the bulk build with the map index's Add loop
// over the same corpus (author names, tau=2), and 1 worker with 2.
func BenchmarkBuildFrozen(b *testing.B) {
	corpus := dataset.Author(100000, 1)
	b.Run("map-index", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			x := New(2)
			for id, s := range corpus {
				x.Add(int32(id), s) // every author name has three bytes
			}
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run("bulk/workers="+string(rune('0'+workers)), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildFrozen(corpus, 2, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
