package passjoin

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// searcherKinds builds each Index implementation over the same corpus at
// the same build threshold, named for subtests: a Searcher at the default
// and at 1, 2 and 3 build workers ("sharded-n"). The dynamic variants cover
// the base/delta split space: all-base (bootstrap), half base + half delta
// (inserted live), and a churned index (deletes + compaction + reinserts,
// ids remapped by the caller via the returned live-id translation).
func searcherKinds(t *testing.T, corpus []string, tau int) map[string]Index {
	t.Helper()
	kinds := make(map[string]Index)

	s, err := NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	kinds["searcher"] = s

	for _, shards := range []int{1, 2, 3} {
		ss, err := NewSearcher(corpus, tau, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		kinds[fmt.Sprintf("sharded-%d", shards)] = ss
	}

	// All-base dynamic: the whole corpus bootstrapped into frozen bases.
	dsBase, err := NewDynamicSearcher(corpus, tau, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dsBase.Close() })
	kinds["dynamic-base"] = dsBase

	// Half base, half delta: the second half arrives as live inserts, so
	// every query merges frozen-base and mutable-delta hits.
	half := len(corpus) / 2
	dsSplit, err := NewDynamicSearcher(corpus[:half], tau, WithShards(3), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dsSplit.Close() })
	for _, doc := range corpus[half:] {
		if _, err := dsSplit.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	kinds["dynamic-split"] = dsSplit

	return kinds
}

// TestQueryTauEquivalence is the headline property of the per-query
// threshold: for every searcher kind built at tau, Search(q, QueryTau(t))
// must equal a dedicated searcher built at t, for every t <= tau.
func TestQueryTauEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	corpus := testCorpus(rng, 120)
	queries := testCorpus(rand.New(rand.NewSource(72)), 40)
	for _, tau := range []int{1, 2, 3} {
		kinds := searcherKinds(t, corpus, tau)
		for qt := 0; qt <= tau; qt++ {
			ref, err := NewSearcher(corpus, qt)
			if err != nil {
				t.Fatal(err)
			}
			for name, idx := range kinds {
				t.Run(fmt.Sprintf("tau=%d/qtau=%d/%s", tau, qt, name), func(t *testing.T) {
					for _, q := range queries {
						want := ref.Search(q)
						got := idx.Search(q, QueryTau(qt))
						if len(got) != len(want) {
							t.Fatalf("query %q: %d matches, want %d\ngot  %v\nwant %v", q, len(got), len(want), got, want)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("query %q: match %d = %+v, want %+v", q, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestQueryTauEquivalenceAfterChurn pins the property on a dynamic index
// whose shards mix compacted bases, deltas and tombstones: matches must
// equal a dedicated static searcher over the surviving documents (with
// ids translated), at every query threshold.
func TestQueryTauEquivalenceAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	corpus := testCorpus(rng, 100)
	const tau = 3
	ds, err := NewDynamicSearcher(corpus[:50], tau, WithShards(2), WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	live := make(map[int]string)
	for i, doc := range corpus[:50] {
		live[i] = doc
	}
	for _, doc := range corpus[50:] {
		id, err := ds.Insert(doc)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = doc
	}
	// Delete a third, compact (folding half the tombstones into the
	// bases), then delete a few more so tombstones still filter queries.
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%3 == 0 {
			if _, err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if i%7 == 1 {
			if ok, err := ds.Delete(id); err != nil {
				t.Fatal(err)
			} else if ok {
				delete(live, id)
			}
		}
	}

	// Reference: a static searcher over the survivors, ids translated.
	var docs []string
	var gids []int
	for id := 0; id < len(corpus)+10; id++ {
		if doc, ok := live[id]; ok {
			gids = append(gids, id)
			docs = append(docs, doc)
		}
	}
	queries := testCorpus(rand.New(rand.NewSource(74)), 30)
	for qt := 0; qt <= tau; qt++ {
		ref, err := NewSearcher(docs, qt)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want := ref.Search(q)
			for i := range want {
				want[i].ID = gids[want[i].ID]
			}
			sortMatches(want)
			got := ds.Search(q, QueryTau(qt))
			if len(got) != len(want) {
				t.Fatalf("qtau=%d query %q: %d matches, want %d\ngot  %v\nwant %v", qt, q, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("qtau=%d query %q: match %d = %+v, want %+v", qt, q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchSeqMatchesSearch checks the streaming form yields exactly the
// Search match set (order aside) on every searcher kind, and that the
// combining options behave: QueryTopK yields ranked matches, QueryLimit
// bounds the stream, and breaking out early is safe.
func TestSearchSeqMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	corpus := testCorpus(rng, 80)
	queries := testCorpus(rand.New(rand.NewSource(76)), 20)
	const tau = 2
	for name, idx := range searcherKinds(t, corpus, tau) {
		t.Run(name, func(t *testing.T) {
			for _, q := range queries {
				for qt := 0; qt <= tau; qt++ {
					want := idx.Search(q, QueryTau(qt))
					byID := make(map[int]int, len(want))
					for _, m := range want {
						byID[m.ID] = m.Dist
					}
					var got []Match
					for m := range idx.SearchSeq(q, QueryTau(qt)) {
						got = append(got, m)
					}
					if len(got) != len(want) {
						t.Fatalf("qtau=%d query %q: seq yielded %d, Search %d", qt, q, len(got), len(want))
					}
					for _, m := range got {
						if d, ok := byID[m.ID]; !ok || d != m.Dist {
							t.Fatalf("qtau=%d query %q: seq match %+v not in Search result", qt, q, m)
						}
					}

					// Ranked streaming: QueryTopK yields Search order.
					top := idx.Search(q, QueryTau(qt), QueryTopK(3))
					var topSeq []Match
					for m := range idx.SearchSeq(q, QueryTau(qt), QueryTopK(3)) {
						topSeq = append(topSeq, m)
					}
					if len(top) != len(topSeq) {
						t.Fatalf("topk seq %d matches vs %d", len(topSeq), len(top))
					}
					for i := range top {
						if top[i] != topSeq[i] {
							t.Fatalf("topk seq[%d] = %+v, want %+v", i, topSeq[i], top[i])
						}
					}

					// Early exit: the first yielded match is valid.
					for m := range idx.SearchSeq(q, QueryTau(qt)) {
						if d, ok := byID[m.ID]; !ok || d != m.Dist {
							t.Fatalf("first seq match %+v invalid", m)
						}
						break
					}

					// Limit: at most n matches, all valid, and exactly
					// min(n, total) of them.
					for _, n := range []int{1, 2, len(want) + 3} {
						var lim []Match
						for m := range idx.SearchSeq(q, QueryTau(qt), QueryLimit(n)) {
							lim = append(lim, m)
						}
						wantN := n
						if len(want) < n {
							wantN = len(want)
						}
						if len(lim) != wantN {
							t.Fatalf("limit %d: %d matches, want %d", n, len(lim), wantN)
						}
						for _, m := range lim {
							if d, ok := byID[m.ID]; !ok || d != m.Dist {
								t.Fatalf("limit match %+v invalid", m)
							}
						}
						if capped := idx.Search(q, QueryTau(qt), QueryLimit(n)); len(capped) != wantN {
							t.Fatalf("Search limit %d: %d matches, want %d", n, len(capped), wantN)
						}
					}
				}
			}
		})
	}
}

// TestQueryTopKOption checks QueryTopK against the manual rank-and-truncate
// of the full result.
func TestQueryTopKOption(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	corpus := testCorpus(rng, 90)
	queries := testCorpus(rand.New(rand.NewSource(78)), 15)
	for name, idx := range searcherKinds(t, corpus, 2) {
		t.Run(name, func(t *testing.T) {
			for _, q := range queries {
				full := idx.Search(q)
				for _, k := range []int{1, 3, len(full) + 2} {
					want := full
					if len(want) > k {
						want = want[:k]
					}
					got := idx.Search(q, QueryTopK(k))
					if len(got) != len(want) {
						t.Fatalf("k=%d: %d matches, want %d", k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("k=%d: match %d = %+v, want %+v", k, i, got[i], want[i])
						}
					}
				}
				if got := idx.Search(q, QueryTopK(0)); got != nil {
					t.Fatalf("QueryTopK(0) returned %v", got)
				}
				if got := idx.Search(q, QueryLimit(-1)); got != nil {
					t.Fatalf("QueryLimit(-1) returned %v", got)
				}
			}
		})
	}
}

// TestQueryTauValidation pins the documented panics: a threshold above the
// build tau, a negative threshold, and a nil option.
func TestQueryTauValidation(t *testing.T) {
	corpus := []string{"vldb", "pvldb", "sigmod"}
	for name, idx := range searcherKinds(t, corpus, 2) {
		t.Run(name, func(t *testing.T) {
			mustPanic(t, "QueryTau above build tau", func() { idx.Search("vldb", QueryTau(3)) })
			mustPanic(t, "negative QueryTau", func() { idx.Search("vldb", QueryTau(-1)) })
			mustPanic(t, "nil option", func() { idx.Search("vldb", nil) })
			mustPanic(t, "SearchSeq QueryTau above build tau", func() { idx.SearchSeq("vldb", QueryTau(3)) })
			if got := idx.Search("vldb", QueryTau(2)); len(got) == 0 {
				t.Error("QueryTau at build tau returned nothing")
			}
		})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestGetBounds checks the uniform checked accessor on every searcher
// kind: in-range ids resolve, out-of-range ids report false instead of
// panicking, and (dynamic) deleted ids report false.
func TestGetBounds(t *testing.T) {
	corpus := []string{"vldb", "pvldb", "sigmod", "icde"}
	for name, idx := range searcherKinds(t, corpus, 1) {
		t.Run(name, func(t *testing.T) {
			for id, want := range corpus {
				if doc, ok := idx.Get(id); !ok || doc != want {
					t.Errorf("Get(%d) = %q, %v; want %q, true", id, doc, ok, want)
				}
			}
			for _, id := range []int{-1, len(corpus), len(corpus) + 100} {
				if doc, ok := idx.Get(id); ok {
					t.Errorf("Get(%d) = %q, true; want false", id, doc)
				}
			}
		})
	}
	ds, err := NewDynamicSearcher(corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Delete(1); err != nil {
		t.Fatal(err)
	}
	if doc, ok := ds.Get(1); ok {
		t.Errorf("Get of deleted id = %q, true; want false", doc)
	}
}

// TestSearchSeqConsumerPanic pins pooled-prober hygiene: a panic thrown
// from inside a SearchSeq loop body must not leave the prober's streaming
// hook armed when the pool hands it to the next query — a later plain
// Search on the same searcher has to return the full, correct result set.
func TestSearchSeqConsumerPanic(t *testing.T) {
	corpus := []string{"vldb", "pvldb", "vldbj", "sigmod", "icde"}
	s, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Search("vldb")
	if len(want) == 0 {
		t.Fatal("no matches to panic on")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("consumer panic did not propagate")
			}
		}()
		for range s.SearchSeq("vldb") {
			panic("consumer bails")
		}
	}()
	// The poisoned prober is back in the pool; with a pool of one it is
	// exactly what the next queries take.
	for rep := 0; rep < 4; rep++ {
		got := s.Search("vldb")
		if len(got) != len(want) {
			t.Fatalf("after consumer panic: %d matches, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after consumer panic: match %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

// TestSearcherConcurrentWithoutClone hammers one plain Searcher from many
// goroutines — the contract Clone used to mediate — mixing Search,
// SearchSeq and per-query options. Run under -race in CI.
func TestSearcherConcurrentWithoutClone(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	corpus := testCorpus(rng, 150)
	queries := testCorpus(rand.New(rand.NewSource(80)), 30)
	s, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = s.Search(q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(queries)
				got := s.Search(queries[i])
				if len(got) != len(want[i]) {
					t.Errorf("worker %d: %d matches, want %d", w, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("worker %d: match %d differs", w, j)
						return
					}
				}
				n := 0
				for range s.SearchSeq(queries[i], QueryTau(1)) {
					n++
					if n >= 2 {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
