package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"passjoin"
	"passjoin/internal/dataset"
)

// BenchmarkShardScaling measures concurrent query throughput through the
// full HTTP handler — the serving-layer counterpart of the root package's
// BenchmarkShardedSearch. A static index answers a lookup on the handler's
// goroutine whatever -shards was, so what scales is client parallelism;
// vary it with -cpu:
//
//	go test -bench ShardScaling -cpu 1,4,8 ./internal/server
func BenchmarkShardScaling(b *testing.B) {
	corpus, err := dataset.ByName("author", 4000, 3)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := passjoin.NewSearcher(corpus, 2)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(idx, nil, Config{})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := corpus[i%len(corpus)]
			i++
			req := httptest.NewRequest("GET", "/v1/search?q="+strings.ReplaceAll(q, " ", "%20"), nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}

// BenchmarkServerSearchObserved measures what the flight recorder costs a
// search request. "raw" is the lookup alone (index probe + fetch, no
// HTTP); "handler" is the full instrumented stack (middleware, counters,
// latency histogram, access log discarded); "traced" additionally arms
// per-query phase tracing as a SlowQuery configuration would. The
// raw-vs-handler gap is HTTP plumbing + observability; handler-vs-traced
// isolates the tracer. Results are recorded in BENCH_obs.json.
func BenchmarkServerSearchObserved(b *testing.B) {
	corpus, err := dataset.ByName("author", 4000, 3)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := passjoin.NewSearcher(corpus, 2, passjoin.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	srv := New(idx, nil, Config{})
	traced := New(idx, nil, Config{SlowQuery: time.Hour})

	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srv.lookup(corpus[i%len(corpus)], 0, nil, nil)
		}
	})
	run := func(s *Server) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := strings.ReplaceAll(corpus[i%len(corpus)], " ", "%20")
				req := httptest.NewRequest("GET", "/v1/search?q="+q, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d", rec.Code)
				}
			}
		}
	}
	b.Run("handler", run(srv))
	b.Run("traced", run(traced))
}

// BenchmarkBatchEndpoint measures the batch path, where the server adds
// query-level concurrency on top of shard fan-out.
func BenchmarkBatchEndpoint(b *testing.B) {
	corpus, err := dataset.ByName("author", 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := passjoin.NewSearcher(corpus, 2)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(idx, nil, Config{})
	body, err := json.Marshal(BatchRequest{Queries: corpus[:128]})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
