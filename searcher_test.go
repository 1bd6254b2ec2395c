package passjoin

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"passjoin/internal/dataset"
)

func TestSearcherBasic(t *testing.T) {
	corpus := []string{"vldb", "pvldb", "sigmod", "icde", "vldbj"}
	s, err := NewSearcher(corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.Search("vldb")
	if len(hits) != 3 {
		t.Fatalf("got %v, want vldb, pvldb, vldbj", hits)
	}
	if hits[0].ID != 0 || hits[0].Dist != 0 {
		t.Errorf("first hit should be the exact match: %+v", hits[0])
	}
	for _, h := range hits {
		if h.Dist > 1 {
			t.Errorf("hit beyond threshold: %+v", h)
		}
	}
	if s.Len() != 5 || s.At(1) != "pvldb" {
		t.Errorf("Len/At: %d %q", s.Len(), s.At(1))
	}
}

func TestSearcherSortedByDistance(t *testing.T) {
	corpus := []string{"abcde", "abcdx", "abcxy", "zzzzz"}
	s, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.Search("abcde")
	if len(hits) != 3 {
		t.Fatalf("hits: %v", hits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Dist < hits[i-1].Dist {
			t.Fatalf("not sorted by distance: %v", hits)
		}
	}
}

func TestSearcherMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	corpus := testCorpus(rng, 150)
	queries := testCorpus(rand.New(rand.NewSource(63)), 40)
	for _, tau := range []int{0, 1, 2, 3} {
		s, err := NewSearcher(corpus, tau)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got := s.Search(q)
			var want int
			for _, c := range corpus {
				if Within(q, c, tau) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("tau=%d q=%q: %d hits, want %d", tau, q, len(got), want)
			}
			for _, h := range got {
				if EditDistance(q, corpus[h.ID]) != h.Dist || h.Dist > tau {
					t.Fatalf("bad hit %+v for %q", h, q)
				}
			}
		}
	}
}

func TestSearcherShortCorpusStrings(t *testing.T) {
	corpus := []string{"", "a", "ab", "abc"}
	s, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.Search("a")
	if len(hits) != 4 { // "", "a", "ab", "abc" are all within 2
		t.Fatalf("hits: %v", hits)
	}
}

func TestSearcherInvalidOptions(t *testing.T) {
	if _, err := NewSearcher(nil, -1); err == nil {
		t.Error("negative tau accepted")
	}
	if _, err := NewSearcher(nil, 1, WithStats(nil)); err == nil {
		t.Error("nil stats accepted")
	}
}

func TestSearcherCloneConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	corpus := testCorpus(rng, 300)
	s, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := testCorpus(rand.New(rand.NewSource(65)), 60)
	// Reference answers from the original, sequentially.
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = s.Search(q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := s.Clone()
			for i := w; i < len(queries); i += 8 {
				got := clone.Search(queries[i])
				if len(got) != len(want[i]) {
					errs <- fmt.Sprintf("worker %d query %d: %d hits, want %d", w, i, len(got), len(want[i]))
					return
				}
				for k := range got {
					if got[k] != want[i][k] {
						errs <- fmt.Sprintf("worker %d query %d hit %d differs", w, i, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSearchAllocs is the allocation gate of the query path: a Search that
// finds nothing allocates nothing — selection, the lookup batch, dedup and
// verification all run on the pooled snapshot's scratch — and one that finds
// matches allocates the engine's hit slice and the returned match slice, no
// more (the reflective sort this replaced added two per call). The ceilings
// are what the code reaches; raise one only with a reason.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop snapshots at random, and a Search then allocates a new one")
	}
	corpus := append(dataset.Author(2000, 7),
		"zachariah quimby", "zachariah quimbey", "zachariah quimbly", "wilhelmina oxenford")
	for _, name := range []string{"Searcher", "ShardedSearcher"} {
		var s Index
		var err error
		if name == "Searcher" {
			s, err = NewSearcher(corpus, 2)
		} else {
			s, err = NewShardedSearcher(corpus, 2, WithShards(2))
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			q               string
			matches, allocs int
		}{
			{"qqqqqqq xxxxxxxx", 0, 0},
			{"wilhelmina oxenfrod", 1, 2},
			{"zachariah quimby", 3, 2},
		} {
			if got := len(s.Search(c.q)); got != c.matches {
				t.Fatalf("%s: %q has %d matches, want %d", name, c.q, got, c.matches)
			}
			if got := testing.AllocsPerRun(200, func() { s.Search(c.q) }); got > float64(c.allocs) {
				t.Errorf("%s: Search(%q), %d matches: %v allocs, want at most %d", name, c.q, c.matches, got, c.allocs)
			}
		}
	}
}
