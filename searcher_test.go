package passjoin

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"passjoin/internal/bruteforce"
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

// TestSearcherSharedConcurrentQueries: one Searcher from every build path,
// shared by 8 goroutines, answers each query as it did sequentially.
func TestSearcherSharedConcurrentQueries(t *testing.T) {
	corpus := testCorpus(rand.New(rand.NewSource(64)), 300)
	queries := testCorpus(rand.New(rand.NewSource(65)), 60)
	for _, b := range staticBuilds() {
		s, err := b.build(corpus, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Reference answers, sequentially.
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
				for i := w; i < len(queries); i += 8 {
					if got := s.Search(queries[i]); !slices.Equal(got, want[i]) {
						errs <- fmt.Sprintf("%s: worker %d query %d: got %v, want %v", b.name, w, i, got, want[i])
						return
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
}

// TestSearchAllocs is the allocation gate of the query path: a Search that
// finds nothing allocates nothing — selection, the lookup batch, dedup and
// verification all run on a pooled prober's scratch — and one that finds
// matches allocates the engine's hit slice and the returned match slice, no
// more (the reflective sort this replaced added two per call). The ceilings
// are what the code reaches; raise one only with a reason.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop probers at random, and a Search then allocates a new one")
	}
	corpus := append(dataset.Author(2000, 7),
		"zachariah quimby", "zachariah quimbey", "zachariah quimbly", "wilhelmina oxenford")
	s, err := NewSearcher(corpus, 2, WithShards(2))
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
			t.Fatalf("%q has %d matches, want %d", c.q, got, c.matches)
		}
		if got := testing.AllocsPerRun(200, func() { s.Search(c.q) }); got > float64(c.allocs) {
			t.Errorf("Search(%q), %d matches: %v allocs, want at most %d", c.q, c.matches, got, c.allocs)
		}
	}
}

// TestDynamicSearchAllocs: a DynamicSearcher whose delta holds documents
// (dirty) searches it in place on a pooled prober, so a dirty Search
// allocates at most 1 KiB and two allocations more than a clean one, for a
// query with no match, one match and several. A delta snapshot per search
// (a matcher, a prober and a stamp array) costs several KB.
func TestDynamicSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop probers at random, and a Search then allocates a new one")
	}
	corpus := append(dataset.Author(2000, 7),
		"zachariah quimby", "zachariah quimbey", "zachariah quimbly", "wilhelmina oxenford")
	clean, err := NewDynamicSearcher(corpus, 2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	dirty, err := NewDynamicSearcher(corpus, 2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer dirty.Close()
	for _, doc := range dataset.Author(257, 8) {
		if _, err := dirty.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	if st := dirty.Stats(); st.DeltaDocs != 257 {
		t.Fatalf("dirty searcher's delta holds %d documents, want 257", st.DeltaDocs)
	}
	// perSearch is one Search's allocations and bytes, averaged over runs.
	perSearch := func(ds *DynamicSearcher, q string) (allocs, bytes float64) {
		const runs = 200
		allocs = testing.AllocsPerRun(runs, func() { ds.Search(q) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			ds.Search(q)
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, c := range []struct {
		q       string
		matches int
	}{
		{"qqqqqqq xxxxxxxx", 0},
		{"wilhelmina oxenfrod", 1},
		{"zachariah quimby", 3},
	} {
		for _, ds := range []*DynamicSearcher{clean, dirty} {
			if got := len(ds.Search(c.q)); got != c.matches {
				t.Fatalf("%q has %d matches, want %d", c.q, got, c.matches)
			}
		}
		cleanAllocs, cleanBytes := perSearch(clean, c.q)
		dirtyAllocs, dirtyBytes := perSearch(dirty, c.q)
		if dirtyAllocs > cleanAllocs+2 || dirtyBytes > cleanBytes+1024 {
			t.Errorf("Search(%q), %d matches: dirty %v allocs, %.0f B; clean %v allocs, %.0f B; want at most +2 allocs, +1024 B",
				c.q, c.matches, dirtyAllocs, dirtyBytes, cleanAllocs, cleanBytes)
		}
	}
}

// TestShardedSearchAllocs: a searcher from the deprecated NewShardedSearcher
// shim allocates no more per Search than one from NewSearcher. Unlike
// TestSearchAllocs it also runs under the race detector.
func TestShardedSearchAllocs(t *testing.T) {
	corpus := authorCorpus(t, 2000)
	plain, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSearcher(corpus, 2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	perSearch := func(s *Searcher) float64 {
		i := 0
		return testing.AllocsPerRun(1000, func() {
			s.Search(corpus[i%len(corpus)])
			i++
		})
	}
	// Best of three alternating rounds over the same queries: the race
	// detector makes sync.Pool drop probers at random, and whichever side
	// is measured first pays more of that.
	sharded, single := math.Inf(1), math.Inf(1)
	for range 3 {
		single = min(single, perSearch(plain))
		sharded = min(sharded, perSearch(ss))
	}
	if sharded > single+1 {
		t.Fatalf("NewShardedSearcher's Search allocates %.1f objects a call, NewSearcher's %.1f", sharded, single)
	}
}

// staticBuild is one way to a Searcher: a build path at a worker count.
type staticBuild struct {
	name    string
	workers int
	build   func(corpus []string, tau int, opts ...Option) (*Searcher, error)
}

// staticBuilds is every build path — NewSearcher, and ReadSearcherFrom over
// a snapshot of the same corpus — at 1, 2 and 7 workers. The tests below
// run one body over all of them.
func staticBuilds() []staticBuild {
	var out []staticBuild
	for _, w := range []int{1, 2, 7} {
		out = append(out,
			staticBuild{fmt.Sprintf("NewSearcher/shards=%d", w), w, func(corpus []string, tau int, opts ...Option) (*Searcher, error) {
				return NewSearcher(corpus, tau, append(opts, WithShards(w))...)
			}},
			staticBuild{fmt.Sprintf("ReadSearcherFrom/shards=%d", w), w, func(corpus []string, tau int, opts ...Option) (*Searcher, error) {
				var buf bytes.Buffer
				if s, err := NewSearcher(corpus, tau, WithShards(1)); err != nil {
					return nil, err
				} else if _, err := s.WriteTo(&buf); err != nil {
					return nil, err
				}
				return ReadSearcherFrom(&buf, append(opts, WithShards(w))...)
			}})
	}
	return out
}

func authorCorpus(t testing.TB, n int) []string {
	t.Helper()
	strs, err := dataset.ByName("author", n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return strs
}

// bruteMatches is the brute-force answer to a search: every corpus
// position within tau of q, in Search order (distance, then id).
func bruteMatches(corpus []string, q string, tau int) []Match {
	var out []Match
	for _, p := range bruteforce.Join([]string{q}, corpus, tau) {
		out = append(out, Match{ID: int(p.S), Dist: EditDistance(q, corpus[p.S])})
	}
	sortMatches(out)
	return out
}

// TestShardedSearcherMatchesSearcher: ShardedSearcher's deprecated
// constructor, and a snapshot read back at the same worker count, answer
// exactly what NewSearcher's index answers, with the same shape.
func TestShardedSearcherMatchesSearcher(t *testing.T) {
	corpus := authorCorpus(t, 400)
	const tau = 3
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		s, err := NewSearcher(corpus, tau, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		old, err := NewShardedSearcher(corpus, tau, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		read, err := ReadSearcherFrom(&buf, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, ss := range []*ShardedSearcher{old, read} {
			if ss.NumShards() != shards || ss.Len() != len(corpus) || ss.Tau() != tau {
				t.Fatalf("shards=%d: NumShards=%d Len=%d Tau=%d", shards, ss.NumShards(), ss.Len(), ss.Tau())
			}
			for _, q := range corpus[:50] {
				if got, want := ss.Search(q), s.Search(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d q=%q: got %v want %v", shards, q, got, want)
				}
			}
		}
	}
}

// TestShardedSearcherEveryQueryShape: on every build path, with 8
// goroutines querying at once, every query shape — plain, QueryTau,
// QueryTopK, QueryLimit, SearchSeq — answers what brute force answers, with
// ids that are corpus positions, and NumShards, Get and All describe the
// build and the corpus.
func TestShardedSearcherEveryQueryShape(t *testing.T) {
	corpus := append(authorCorpus(t, 300), "", "a", "ab", "abc")
	corpus = append(corpus, corpus[5], corpus[5], corpus[17])
	const tau = 3
	rng := rand.New(rand.NewSource(23))
	queries := append([]string{"", "ab"}, corpus[:30]...)
	for _, s := range corpus[30:50] {
		b := []byte(s)
		b[rng.Intn(len(b))] = 'x'
		queries = append(queries, string(b[:len(b)-rng.Intn(2)]))
	}
	want := make([][][]Match, len(queries)) // [query][query tau]
	for i, q := range queries {
		for qt := 0; qt <= tau; qt++ {
			want[i] = append(want[i], bruteMatches(corpus, q, qt))
		}
	}
	for _, b := range staticBuilds() {
		s, err := b.build(corpus, tau)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumShards() != b.workers {
			t.Fatalf("%s: NumShards %d", b.name, s.NumShards())
		}
		for id, doc := range corpus {
			if got, ok := s.Get(id); !ok || got != doc {
				t.Fatalf("%s: Get(%d) = %q, %v; corpus has %q", b.name, id, got, ok, doc)
			}
		}
		var all []string
		for id, doc := range s.All() {
			if id != len(all) {
				t.Fatalf("%s: All yields id %d at position %d", b.name, id, len(all))
			}
			all = append(all, doc)
		}
		if !slices.Equal(all, corpus) {
			t.Fatalf("%s: All yields %d strings, not the corpus", b.name, len(all))
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
						qtau := QueryTau(qt)
						if got := s.Search(q, qtau); !slices.Equal(got, w) {
							t.Errorf("%s q=%q tau=%d: %v, brute force %v", b.name, q, qt, got, w)
							return
						}
						if got := s.Search(q, qtau, QueryTopK(3)); !slices.Equal(got, w[:min(3, len(w))]) {
							t.Errorf("%s q=%q tau=%d: top-3 %v, want a prefix of %v", b.name, q, qt, got, w)
							return
						}
						capped := s.Search(q, qtau, QueryLimit(2))
						if len(capped) != min(2, len(w)) || slices.ContainsFunc(capped, func(m Match) bool { return !slices.Contains(w, m) }) {
							t.Errorf("%s q=%q tau=%d: limit-2 %v, want 2 of %v", b.name, q, qt, capped, w)
							return
						}
						seq := slices.Collect(s.SearchSeq(q, qtau))
						sortMatches(seq)
						if !slices.Equal(seq, w) {
							t.Errorf("%s q=%q tau=%d: SearchSeq collected %v, want %v", b.name, q, qt, seq, w)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestShardedSearcherTopK: on every build path QueryTopK is the k-prefix of
// Search, for every k from none to more than there are matches.
func TestShardedSearcherTopK(t *testing.T) {
	corpus := authorCorpus(t, 300)
	const tau = 4
	for _, b := range staticBuilds() {
		s, err := b.build(corpus, tau)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range corpus[:30] {
			full := s.Search(q)
			for _, k := range []int{0, 1, 2, 5, len(full), len(full) + 3} {
				want := full[:min(max(k, 0), len(full))]
				if k <= 0 {
					want = nil
				}
				if got := s.Search(q, QueryTopK(k)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s q=%q k=%d: got %v want %v", b.name, q, k, got, want)
				}
			}
		}
	}
}

// TestShardedSearcherStats checks the build counters: whatever the build
// path and the worker count they are the one-worker constructor's, every
// field of them.
func TestShardedSearcherStats(t *testing.T) {
	corpus := append(authorCorpus(t, 200), "a", "")
	var want Stats
	if _, err := NewSearcher(corpus, 2, WithShards(1), WithStats(&want)); err != nil {
		t.Fatal(err)
	}
	if want.Strings != int64(len(corpus)) || want.ShortStrings != 2 || want.IndexEntries == 0 || want.IndexBytes == 0 ||
		want.FrozenEntries != want.IndexEntries || want.FrozenBytes == 0 {
		t.Fatalf("searcher build stats not filled: %+v", want)
	}
	for _, b := range staticBuilds() {
		var st Stats
		if _, err := b.build(corpus, 2, WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		if st.String() != want.String() {
			t.Fatalf("%s: stats %v, want %v", b.name, st.String(), want.String())
		}
	}
}

// TestShardedSearcherPersist: whatever the build path, a searcher writes the
// same snapshot, and reading it back on another worker count answers like
// the original.
func TestShardedSearcherPersist(t *testing.T) {
	corpus := authorCorpus(t, 150)
	const tau = 2
	var want []byte
	for i, b := range staticBuilds() {
		s, err := b.build(corpus, tau)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = slices.Clone(buf.Bytes())
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: snapshot of %d bytes differs from the first build's %d", b.name, buf.Len(), len(want))
		}
		re, err := ReadSearcherFrom(&buf, WithShards(5))
		if err != nil {
			t.Fatal(err)
		}
		if re.Tau() != tau || re.Len() != len(corpus) || re.NumShards() != 5 {
			t.Fatalf("%s reloaded: tau=%d len=%d shards=%d", b.name, re.Tau(), re.Len(), re.NumShards())
		}
		for _, q := range corpus[:40] {
			if got, want := re.Search(q), s.Search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q=%q: reloaded %v original %v", b.name, q, got, want)
			}
		}
	}
}

// TestShardedSearcherEmptyAndTiny covers degenerate corpora on every build
// path: never more workers than strings, and never fewer than one.
func TestShardedSearcherEmptyAndTiny(t *testing.T) {
	for _, b := range staticBuilds() {
		s, err := b.build(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 || s.NumShards() != 1 {
			t.Fatalf("%s empty: len=%d shards=%d", b.name, s.Len(), s.NumShards())
		}
		if got := s.Search("anything"); len(got) != 0 {
			t.Fatalf("%s: empty corpus matched %v", b.name, got)
		}
		for range s.All() {
			t.Fatalf("%s: All yields a string of an empty corpus", b.name)
		}

		if s, err = b.build([]string{"ab", "ac"}, 1); err != nil {
			t.Fatal(err)
		}
		if s.NumShards() != min(b.workers, 2) {
			t.Fatalf("%s tiny corpus: shards=%d", b.name, s.NumShards())
		}
		got := s.Search("ab")
		if len(got) != 2 || got[0] != (Match{ID: 0, Dist: 0}) || got[1] != (Match{ID: 1, Dist: 1}) {
			t.Fatalf("%s tiny search: %v", b.name, got)
		}
	}
}
