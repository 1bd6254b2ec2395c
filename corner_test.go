package passjoin

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/verify"
)

// cornerWords is the table of corner-case words for edit
// distance: the empty string, words no longer than tau, words on either side
// of 32 and 64 bytes — the verifiers' word sizes — non-ASCII ones, whose
// bytes differ where their runes do not, and more strings of one length than
// a join probes as one chunk (1 024), so that the length spans two: random
// words and a near copy of each.
func cornerWords() []string {
	words := []string{"", "", "a", "b", "ab", "ba", "abc"}
	for _, n := range []int{31, 32, 33, 63, 64, 65} {
		w := strings.Repeat("pass-join ", 7)[:n]
		words = append(words, w, w[:n-1]+"x", "y"+w[1:], w[1:])
	}
	words = append(words, "naïve", "naive", "café", "cafe", "caf", "日本語", "日本", "日本人",
		"Straße", "Strasse", "ÅÄÖ", "AAO", "\x00\xff", "\xff\x00")
	rng := rand.New(rand.NewSource(38))
	for range 550 {
		b := make([]byte, 12)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(b))
		for e := 1 + rng.Intn(3); e > 0; e-- {
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
		}
		words = append(words, string(b))
	}
	return words
}

// TestSearchCornerWords runs cornerWords through the query rungs: a
// Searcher's search and top-k, and a DynamicSearcher's with a delta of
// inserted words and deleted ones, and again after compaction. Every
// answer is held to brute force over the logical corpus, at τ 0–3.
func TestSearchCornerWords(t *testing.T) {
	words := cornerWords()
	var queries []string
	for k := 0; k < len(words); k += 5 {
		queries = append(queries, words[k], words[k]+"z", "q"+words[k])
	}
	base, delta := words[:len(words)-300], words[len(words)-300:]
	for tau := 0; tau <= 3; tau++ {
		s, err := NewSearcher(words, tau)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]string{}
		for id, w := range words {
			live[id] = w
		}
		checkCornerSearch(t, "Searcher", s, live, queries, tau)

		d, err := NewDynamicSearcher(base, tau, WithCompactThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		live = map[int]string{}
		for id, w := range base {
			live[id] = w
		}
		for _, w := range delta {
			id, err := d.Insert(w)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = w
		}
		for id := 0; id < d.NextID(); id += 7 { // base and delta words alike
			if _, err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
		if st := d.Stats(); st.DeltaDocs == 0 || st.Tombstones == 0 {
			t.Fatalf("tau=%d: delta %d, tombstones %d; want both non-empty", tau, st.DeltaDocs, st.Tombstones)
		}
		checkCornerSearch(t, "DynamicSearcher with a delta", d, live, queries, tau)
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.DeltaDocs != 0 {
			t.Fatalf("tau=%d: %d delta documents after Compact", tau, st.DeltaDocs)
		}
		checkCornerSearch(t, "DynamicSearcher compacted", d, live, queries, tau)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCornerSearch holds idx's Search and top-k answers to each query to
// brute force over live, the logical corpus by id: every word within tau
// (bruteforce.Join), with its distance, by ascending distance and then id.
func checkCornerSearch(t *testing.T, name string, idx Index, live map[int]string, queries []string, tau int) {
	t.Helper()
	var ids []int
	var ws []string
	for id, w := range live {
		ids, ws = append(ids, id), append(ws, w)
	}
	var v verify.Verifier
	for _, q := range queries {
		want := []Match{}
		for _, p := range bruteforce.Join([]string{q}, ws, tau) {
			want = append(want, Match{ID: ids[p.S], Dist: v.Dist(ws[p.S], q, tau)})
		}
		slices.SortFunc(want, func(a, b Match) int {
			if a.Dist != b.Dist {
				return a.Dist - b.Dist
			}
			return a.ID - b.ID
		})
		if got := idx.Search(q); !slices.Equal(append([]Match{}, got...), want) {
			t.Fatalf("%s tau=%d: Search(%q) = %v, brute force %v", name, tau, q, got, want)
		}
		for _, k := range []int{1, 3} {
			top := want[:min(k, len(want))]
			if got := idx.Search(q, QueryTopK(k)); !slices.Equal(append([]Match{}, got...), top) {
				t.Fatalf("%s tau=%d: Search(%q, QueryTopK(%d)) = %v, brute force %v", name, tau, q, k, got, top)
			}
		}
	}
}
