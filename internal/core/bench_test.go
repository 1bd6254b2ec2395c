package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"passjoin/internal/dataset"
	"passjoin/internal/selection"
)

// joinBenchCorpora are the two regimes of the bench/ harness: short strings
// (author names, tau 2), where sorting, index build and probing are the
// time, and long ones (titles, tau 8), where verification is. Both are
// shuffled with a fixed seed, as the harness shuffles them: in the
// generator's own order neighbouring headers point at neighbouring heap
// objects, which hides what reading a corpus in sorted order costs.
func joinBenchCorpora() []joinBenchCorpus {
	cs := []joinBenchCorpus{
		{"Author100k/tau=2", dataset.Author(100000, 1), 2},
		{"AuthorTitle20k/tau=8", dataset.AuthorTitle(20000, 1), 8},
	}
	for _, c := range cs {
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(c.corpus), func(i, j int) { c.corpus[i], c.corpus[j] = c.corpus[j], c.corpus[i] })
	}
	return cs
}

type joinBenchCorpus struct {
	name   string
	corpus []string
	tau    int
}

// BenchmarkSelfJoinSerial is the default-options self join — the caller
// and one helper, as at Parallel: 1 and 2 — and the same join at
// Parallel: 4, on min(4, GOMAXPROCS) workers.
func BenchmarkSelfJoinSerial(b *testing.B) {
	for _, c := range joinBenchCorpora() {
		for _, par := range []int{0, 4} {
			name := c.name
			if par > 0 {
				name += fmt.Sprintf("/parallel=%d", par)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := SelfJoin(c.corpus, Options{Tau: c.tau, Parallel: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkJoinSerial is the default-options R≠S join of each corpus's
// first half against its second: the window holds 2τ+1 groups, and the
// probing side's signatures are computed a chunk at a time.
func BenchmarkJoinSerial(b *testing.B) {
	for _, c := range joinBenchCorpora() {
		r, s := c.corpus[:len(c.corpus)/2], c.corpus[len(c.corpus)/2:]
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Join(r, s, Options{Tau: c.tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortRecs is the join's prologue alone — order, pack and sign the
// corpus — on one goroutine and on two.
func BenchmarkSortRecs(b *testing.B) {
	for _, c := range joinBenchCorpora() {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					sortRecs(c.corpus, workers, true)
				}
			})
		}
	}
}

// BenchmarkSortPairs is the sort that canonicalizes every SelfJoin's result:
// the pairs of the two bench corpora, in the order the serial join emits
// them.
func BenchmarkSortPairs(b *testing.B) {
	for _, c := range joinBenchCorpora() {
		var emitted []Pair
		if err := SelfJoinEach(context.Background(), c.corpus, Options{Tau: c.tau}, func(p Pair) bool {
			emitted = append(emitted, p)
			return true
		}); err != nil {
			b.Fatal(err)
		}
		ps := make([]Pair, len(emitted))
		b.Run(fmt.Sprintf("%s/pairs=%d", c.name, len(ps)), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				copy(ps, emitted)
				SortPairs(ps)
			}
		})
	}
}

// BenchmarkQueryCold is one query against an index several times the size
// of the cache, the regime of the bench/ harness's search-lib: author names
// in shuffled order (so neighbouring ids are not neighbouring strings) under
// one sealed matcher at tau 2, and 50 000 queries — a quarter exact corpus
// strings, half a corpus string one or two edits away, a quarter six edits
// away — each asked once per pass, so no query finds its rows still cached.
func BenchmarkQueryCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	corpus := dataset.Author(100000, 1)
	rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
	queries := make([]string, 50000)
	for k := range queries {
		edits := [4]int{0, 1, 2, 6}[k%4]
		queries[k] = mutateN(rng, corpus[rng.Intn(len(corpus))], edits, 26)
	}
	m, err := BuildSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 2)
	if err != nil {
		b.Fatal(err)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		hits += len(m.QueryOpt(queries[k%len(queries)], QueryOpts{Tau: 2}))
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkSearchManyHits is the query of TestManyHitsSorted: every string
// of the corpus is a hit, and the hits arrive as two interleaved runs.
func BenchmarkSearchManyHits(b *testing.B) {
	corpus := manyHitsCorpus(60000)
	m, err := BuildSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if n := len(m.Query(corpus[0])); n != len(corpus) {
			b.Fatalf("%d hits", n)
		}
	}
}
