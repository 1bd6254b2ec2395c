package passjoin_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"passjoin"
	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
)

func shardedCorpus(t testing.TB, n int) []string {
	t.Helper()
	strs, err := dataset.ByName("author", n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return strs
}

// TestShardedSearcherMatchesSearcher checks that for every shard count the
// sharded searcher returns exactly the plain searcher's answer.
func TestShardedSearcherMatchesSearcher(t *testing.T) {
	corpus := shardedCorpus(t, 400)
	tau := 3
	ref, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		ss, err := passjoin.NewShardedSearcher(corpus, tau, passjoin.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := ss.NumShards(); got != shards {
			t.Fatalf("shards=%d: NumShards=%d", shards, got)
		}
		if ss.Len() != len(corpus) || ss.Tau() != tau {
			t.Fatalf("shards=%d: Len=%d Tau=%d", shards, ss.Len(), ss.Tau())
		}
		for id := range corpus {
			if ss.At(id) != corpus[id] {
				t.Fatalf("shards=%d: At(%d)=%q want %q", shards, id, ss.At(id), corpus[id])
			}
		}
		for _, q := range corpus[:50] {
			want := ref.Search(q)
			got := ss.Search(q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d q=%q: got %v want %v", shards, q, got, want)
			}
		}
	}
}

// bruteMatches is the brute-force answer to a search: every corpus
// position within tau of q, in Search order (distance, then id).
func bruteMatches(corpus []string, q string, tau int) []passjoin.Match {
	var out []passjoin.Match
	for _, p := range bruteforce.Join([]string{q}, corpus, tau) {
		out = append(out, passjoin.Match{ID: int(p.S), Dist: passjoin.EditDistance(q, corpus[p.S])})
	}
	slices.SortFunc(out, byDistThenID)
	return out
}

func byDistThenID(a, b passjoin.Match) int {
	if a.Dist != b.Dist {
		return a.Dist - b.Dist
	}
	return a.ID - b.ID
}

// TestShardedSearcherEveryQueryShape: at 1, 2 and 7 build workers, with 8
// goroutines querying at once, every query shape — plain, QueryTau,
// QueryTopK, QueryLimit, SearchSeq — answers what Searcher and brute force
// answer, with ids that are corpus positions.
func TestShardedSearcherEveryQueryShape(t *testing.T) {
	corpus := append(shardedCorpus(t, 300), "", "a", "ab", "abc")
	corpus = append(corpus, corpus[5], corpus[5], corpus[17])
	const tau = 3
	rng := rand.New(rand.NewSource(23))
	queries := append([]string{"", "ab"}, corpus[:30]...)
	for _, s := range corpus[30:50] {
		b := []byte(s)
		b[rng.Intn(len(b))] = 'x'
		queries = append(queries, string(b[:len(b)-rng.Intn(2)]))
	}
	want := make([][][]passjoin.Match, len(queries)) // [query][query tau]
	for i, q := range queries {
		for qt := 0; qt <= tau; qt++ {
			want[i] = append(want[i], bruteMatches(corpus, q, qt))
		}
	}
	plain, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 7} {
		ss, err := passjoin.NewShardedSearcher(corpus, tau, passjoin.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for id, s := range corpus {
			if got, ok := ss.Get(id); !ok || got != s {
				t.Fatalf("shards=%d: Get(%d) = %q, %v; corpus has %q", shards, id, got, ok, s)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range queries {
					i := (k + g*7) % len(queries)
					q := queries[i]
					for qt := 0; qt <= tau; qt++ {
						w := want[i][qt]
						qtau := passjoin.QueryTau(qt)
						if got := ss.Search(q, qtau); !slices.Equal(got, w) || !slices.Equal(plain.Search(q, qtau), w) {
							t.Errorf("shards=%d q=%q tau=%d: sharded %v, plain %v, brute force %v", shards, q, qt, got, plain.Search(q, qtau), w)
							return
						}
						if got := ss.Search(q, qtau, passjoin.QueryTopK(3)); !slices.Equal(got, w[:min(3, len(w))]) {
							t.Errorf("shards=%d q=%q tau=%d: top-3 %v, want a prefix of %v", shards, q, qt, got, w)
							return
						}
						capped := ss.Search(q, qtau, passjoin.QueryLimit(2))
						if len(capped) != min(2, len(w)) || slices.ContainsFunc(capped, func(m passjoin.Match) bool { return !slices.Contains(w, m) }) {
							t.Errorf("shards=%d q=%q tau=%d: limit-2 %v, want 2 of %v", shards, q, qt, capped, w)
							return
						}
						seq := slices.Collect(ss.SearchSeq(q, qtau))
						slices.SortFunc(seq, byDistThenID)
						if !slices.Equal(seq, w) {
							t.Errorf("shards=%d q=%q tau=%d: SearchSeq collected %v, want %v", shards, q, qt, seq, w)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestShardedSearchAllocs is the deterministic gate on the in-line probe:
// a sharded Search may allocate at most one object more than a plain one
// (it allocated 13.6 against 4.7 when it fanned out to two shards).
func TestShardedSearchAllocs(t *testing.T) {
	corpus := shardedCorpus(t, 2000)
	plain, err := passjoin.NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := passjoin.NewShardedSearcher(corpus, 2, passjoin.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	perSearch := func(search func(string, ...passjoin.QueryOption) []passjoin.Match) float64 {
		i := 0
		return testing.AllocsPerRun(1000, func() {
			search(corpus[i%len(corpus)])
			i++
		})
	}
	// Best of three alternating rounds over the same queries: the race
	// detector makes sync.Pool drop snapshots at random, and whichever side
	// is measured first pays more of that.
	sharded, single := math.Inf(1), math.Inf(1)
	for range 3 {
		single = min(single, perSearch(plain.Search))
		sharded = min(sharded, perSearch(ss.Search))
	}
	if sharded > single+1 {
		t.Fatalf("ShardedSearcher.Search allocates %.1f objects a call, Searcher.Search %.1f", sharded, single)
	}
}

// TestShardedSearcherTopK checks SearchTopK is a prefix of Search and that
// Searcher and ShardedSearcher agree.
func TestShardedSearcherTopK(t *testing.T) {
	corpus := shardedCorpus(t, 300)
	tau := 4
	ref, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := passjoin.NewShardedSearcher(corpus, tau, passjoin.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range corpus[:30] {
		full := ss.Search(q)
		for _, k := range []int{0, 1, 2, 5, len(full), len(full) + 3} {
			got := ss.SearchTopK(q, k)
			want := full
			if k <= 0 {
				want = nil
			} else if len(want) > k {
				want = want[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%q k=%d: got %v want %v", q, k, got, want)
			}
			if refGot := ref.SearchTopK(q, k); !reflect.DeepEqual(refGot, got) {
				t.Fatalf("q=%q k=%d: searcher %v sharded %v", q, k, refGot, got)
			}
		}
	}
}

// TestShardedSearcherStats checks the build counters: whatever the worker
// count they are the plain searcher's, every field of it.
func TestShardedSearcherStats(t *testing.T) {
	corpus := append(shardedCorpus(t, 200), "a", "")
	var want passjoin.Stats
	if _, err := passjoin.NewSearcher(corpus, 2, passjoin.WithStats(&want)); err != nil {
		t.Fatal(err)
	}
	if want.Strings != int64(len(corpus)) || want.ShortStrings != 2 || want.IndexEntries == 0 || want.IndexBytes == 0 ||
		want.FrozenEntries != want.IndexEntries || want.FrozenBytes == 0 {
		t.Fatalf("searcher build stats not filled: %+v", want)
	}
	for _, shards := range []int{1, 4} {
		var st passjoin.Stats
		if _, err := passjoin.NewShardedSearcher(corpus, 2, passjoin.WithShards(shards), passjoin.WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		if st.String() != want.String() {
			t.Fatalf("shards=%d: stats %v, searcher's %v", shards, st.String(), want.String())
		}
	}
}

// TestShardedSearcherPersist round-trips a sharded snapshot, including a
// reload with a different shard count and through the plain reader.
func TestShardedSearcherPersist(t *testing.T) {
	corpus := shardedCorpus(t, 150)
	tau := 2
	ss, err := passjoin.NewShardedSearcher(corpus, tau, passjoin.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ss.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Both searchers write the same snapshot, and it must load through both
	// readers and answer identically.
	plain, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	var plainBuf bytes.Buffer
	if _, err := plain.WriteTo(&plainBuf); err != nil {
		t.Fatal(err)
	}
	fromPlain, err := passjoin.ReadShardedSearcherFrom(bytes.NewReader(plainBuf.Bytes()), passjoin.WithShards(3))
	if err != nil {
		t.Fatalf("sharded reader rejected plain snapshot: %v", err)
	}
	for _, q := range corpus[:20] {
		if got, want := fromPlain.Search(q), ss.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: sharded-from-plain %v original %v", q, got, want)
		}
	}

	re, err := passjoin.ReadShardedSearcherFrom(bytes.NewReader(buf.Bytes()), passjoin.WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if re.Tau() != tau || re.Len() != len(corpus) || re.NumShards() != 5 {
		t.Fatalf("reloaded: tau=%d len=%d shards=%d", re.Tau(), re.Len(), re.NumShards())
	}
	for _, q := range corpus[:40] {
		if got, want := re.Search(q), ss.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: reloaded %v original %v", q, got, want)
		}
	}
	if _, err := passjoin.ReadSearcherFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("plain reader rejected sharded snapshot: %v", err)
	}
}

// TestShardedSearcherEmptyAndTiny covers degenerate corpora.
func TestShardedSearcherEmptyAndTiny(t *testing.T) {
	ss, err := passjoin.NewShardedSearcher(nil, 1, passjoin.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 0 || ss.NumShards() != 1 {
		t.Fatalf("empty: len=%d shards=%d", ss.Len(), ss.NumShards())
	}
	if got := ss.Search("anything"); len(got) != 0 {
		t.Fatalf("empty corpus matched %v", got)
	}

	ss, err = passjoin.NewShardedSearcher([]string{"ab", "ac"}, 1, passjoin.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumShards() != 2 {
		t.Fatalf("tiny corpus shards=%d want 2", ss.NumShards())
	}
	got := ss.Search("ab")
	if len(got) != 2 || got[0].ID != 0 || got[0].Dist != 0 || got[1].ID != 1 || got[1].Dist != 1 {
		t.Fatalf("tiny search: %v", got)
	}
}
