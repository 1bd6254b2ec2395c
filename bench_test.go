// Benchmarks of the library's product paths: the parallel and streaming
// joins, the searchers, the dynamic index and the hot kernels. The paper's
// tables and figures are internal/repro's (BenchmarkFigures). Absolute
// numbers are machine-dependent.
//
//	go test -bench=. -benchmem
package passjoin_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"passjoin"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// Benchmark corpora (cached): small-scale stand-ins for Table 2's datasets.
var (
	benchOnce    sync.Once
	benchCorpora map[string][]string
)

func corpora(b *testing.B) map[string][]string {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpora = map[string][]string{}
		sizes := map[string]int{"author": 2000, "querylog": 800}
		for name, n := range sizes {
			strs, err := dataset.ByName(name, n, 1)
			if err != nil {
				panic(err)
			}
			benchCorpora[name] = strs
		}
	})
	return benchCorpora
}

// BenchmarkAblationParallel measures the join at 1 to 8 workers: at 1 and 2
// the caller and one helper, above that up to GOMAXPROCS.
func BenchmarkAblationParallel(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SelfJoin(strs, core.Options{Tau: 3, Parallel: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamJoinParallel measures the streaming join behind
// SelfJoinEachCtx / the /v1/join endpoints: the window scan on its
// workers, delivering pairs in scan order without materializing the result
// set; compare against BenchmarkAblationParallel (which materializes and
// sorts) for the streaming overhead; ns/pair is reported per emitted pair.
func BenchmarkStreamJoinParallel(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var pairs int64
			for i := 0; i < b.N; i++ {
				err := passjoin.SelfJoinEachCtx(context.Background(), strs, 3, func(r, s int) bool {
					pairs++
					return true
				}, passjoin.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
			}
			if pairs > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
			}
		})
	}
}

// BenchmarkShardedSearch measures the two things WithShards(n) can still
// change, plus the one it cannot: the parallel bulk build at 1 and 4
// workers (GOMAXPROCS caps what 4 can buy), and concurrent query
// throughput against the one index they both produce — a query probes it
// once on its caller's goroutine whatever n was, so there is no sweep.
func BenchmarkShardedSearch(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("build/workers=%d", workers), func(b *testing.B) {
			for b.Loop() {
				if _, err := passjoin.NewSearcher(strs, 2, passjoin.WithShards(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	ss, err := passjoin.NewSearcher(strs, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("search", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				ss.Search(strs[i%len(strs)])
				i++
			}
		})
	})
}

// BenchmarkPerQueryTau measures what the "one index, many thresholds"
// redesign costs at query time: a τ′=1 probe against an index partitioned
// for τ=3 (QueryTau tightens the selection windows and verification
// bounds) versus the same probe against a dedicated τ=1 index. The
// dedicated index has fewer, longer segments (2 slots instead of 4), so
// some gap is structural; what matters is that the shared index stays in
// the same regime while serving every threshold from one arena — holding
// a dedicated index per threshold costs memory linear in the number of
// thresholds served.
func BenchmarkPerQueryTau(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	shared, err := passjoin.NewSearcher(strs, 3)
	if err != nil {
		b.Fatal(err)
	}
	dedicated, err := passjoin.NewSearcher(strs, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tau=3/query-tau=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shared.Search(strs[i%len(strs)], passjoin.QueryTau(1))
		}
	})
	b.Run("tau=1/dedicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dedicated.Search(strs[i%len(strs)])
		}
	})
	b.Run("tau=3/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shared.Search(strs[i%len(strs)])
		}
	})
}

// BenchmarkFrozenVsMapProbe compares the two index representations on the
// serving read path (the extension beyond the paper that Searcher and
// passjoind are built on). The "map" arms probe the mutable build index
// (per-(length,slot) Go maps); the "frozen" arms probe the sealed CSR
// form (open-addressing tables over one contiguous posting arena).
//
//   - map/read, frozen/read: the full read path. The map arm reproduces
//     the pre-freeze serving pipeline — probe, then recover each hit's
//     distance with a full-DP EditDistance pass; the frozen arm reads the
//     distances the verification pass already bounded, so it does no
//     second DP (hence fewer allocs/op as well as lower ns/op).
//   - map/probe, frozen/probe: structure isolation — identical id-only
//     queries on both representations, so the delta is purely Go-map
//     hashing + scattered postings vs hash-table + CSR arena.
func BenchmarkFrozenVsMapProbe(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	tau := 3
	// Queries are corpus strings with one substituted byte — the serving
	// regime (close but not identical), so hits genuinely pay distance
	// recovery rather than short-circuiting on equality.
	queries := make([]string, len(strs))
	for i, s := range strs {
		q := []byte(s)
		q[len(q)/2] = 'z'
		queries[i] = string(q)
	}
	mapM, err := core.NewMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range strs {
		mapM.InsertSilent(s)
	}
	frozenM, err := core.BuildSealedMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil, slices.Clone(strs), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("map/read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			for _, id := range mapM.QueryIDs(q) {
				_ = verify.EditDistance(q, strs[id])
			}
		}
	})
	b.Run("frozen/read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frozenM.Query(queries[i%len(queries)])
		}
	})
	b.Run("map/probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapM.QueryIDs(queries[i%len(queries)])
		}
	})
	b.Run("frozen/probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frozenM.QueryIDs(queries[i%len(queries)])
		}
	})
}

// BenchmarkQueryTopK measures the k-bounded heap path against corpora
// where matches far outnumber k.
func BenchmarkQueryTopK(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	s, err := passjoin.NewSearcher(strs, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Search(strs[i%len(strs)], passjoin.QueryTopK(k))
			}
		})
	}
}

// BenchmarkColdStart times a snapshot in both directions on the corpora of
// bench/'s persist.* rungs: write is WriteTo into memory; read is those bytes
// back to a searcher that answers — the parse, then the index build on one
// worker or two.
func BenchmarkColdStart(b *testing.B) {
	for _, c := range []struct {
		name   string
		corpus []string
		tau    int
	}{
		{"Author100k", dataset.Author(100000, 1), 2},
		{"AuthorTitle20k", dataset.AuthorTitle(20000, 1), 8},
	} {
		s, err := passjoin.NewSearcher(c.corpus, c.tau)
		if err != nil {
			b.Fatal(err)
		}
		var snap bytes.Buffer
		if _, err := s.WriteTo(&snap); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/write", func(b *testing.B) {
			b.ReportAllocs()
			var out bytes.Buffer
			for b.Loop() {
				out.Reset()
				if _, err := s.WriteTo(&out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Len())/float64(len(c.corpus)), "B/string")
		})
		b.Run(c.name+"/read/workers=1", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := passjoin.ReadSearcherFrom(bytes.NewReader(snap.Bytes()), passjoin.WithShards(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/read/workers=2", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := passjoin.ReadSearcherFrom(bytes.NewReader(snap.Bytes()), passjoin.WithShards(2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroVerify isolates the verifier kernels of §5.1.
func BenchmarkMicroVerify(b *testing.B) {
	r := "kaushuk chadhui kaushuk chadhui kaushuk"
	s := "caushik chakrabar kaushik chakrab kaush"
	var v verify.Verifier
	b.Run("LengthAware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.Dist(r, s, 8)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.DistNaive(r, s, 8)
		}
	})
	b.Run("FullDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verify.EditDistance(r, s)
		}
	})
	b.Run("Myers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.DistMyers(r, s, 8)
		}
	})
}

// BenchmarkMicroMatcherInsert measures the online Matcher's per-insert
// cost on the query-log regime.
func BenchmarkMicroMatcherInsert(b *testing.B) {
	cs := corpora(b)
	strs := cs["querylog"]
	b.ReportAllocs()
	m, err := passjoin.NewMatcher(2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m.Insert(strs[i%len(strs)])
	}
}

// BenchmarkMicroSelfJoinFacade measures the public API end to end.
func BenchmarkMicroSelfJoinFacade(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := passjoin.SelfJoin(strs, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicInsert measures the write path of the dynamic searcher:
// per-insert cost including delta indexing and periodic background
// compaction, with and without WAL durability (the durable arm pays one
// appending write syscall per insert).
func BenchmarkDynamicInsert(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	run := func(b *testing.B, dir string) {
		var (
			ds  *passjoin.DynamicSearcher
			err error
		)
		if dir == "" {
			ds, err = passjoin.NewDynamicSearcher(nil, 2, passjoin.WithShards(4))
		} else {
			ds, err = passjoin.OpenDynamicSearcher(dir, nil, 2, passjoin.WithShards(4))
		}
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ds.Insert(strs[i%len(strs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("volatile", func(b *testing.B) { run(b, "") })
	b.Run("wal", func(b *testing.B) { run(b, b.TempDir()) })
}

// BenchmarkSearchUnderChurn measures query latency on a dynamic index
// while a writer goroutine keeps inserting and deleting (forcing delta
// growth and background compactions) — the serving regime the static
// BenchmarkShardedSearch cannot exercise.
func BenchmarkSearchUnderChurn(b *testing.B) {
	cs := corpora(b)
	strs := cs["author"]
	ds, err := passjoin.NewDynamicSearcher(strs, 2,
		passjoin.WithShards(4), passjoin.WithCompactThreshold(256))
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id, err := ds.Insert(strs[i%len(strs)])
			if err != nil {
				b.Error(err)
				return
			}
			if i%2 == 0 {
				ds.Delete(id)
			}
			i++
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ds.Search(strs[i%len(strs)])
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
