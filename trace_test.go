package passjoin

import (
	"testing"
	"time"

	"passjoin/internal/dataset"
)

func traceCorpus(t testing.TB) []string {
	t.Helper()
	strs, err := dataset.ByName("author", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	return strs
}

// traceIdx pairs a searcher with the shard concurrency its traced phase
// times can legitimately exceed wall time by.
type traceIdx struct {
	Index
	shards int
}

// traceSearchers builds a Searcher on one build worker and on four and a
// dynamic searcher over the same corpus, so trace behavior is asserted on
// every index kind (frozen, dynamic base+delta) whatever built it.
func traceSearchers(t *testing.T, corpus []string) map[string]traceIdx {
	t.Helper()
	single, err := NewSearcher(corpus, 2, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSearcher(corpus, 2, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicSearcher(corpus, 2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	return map[string]traceIdx{
		"searcher": {single, 1},
		"sharded":  {sharded, 4},
		"dynamic":  {dyn, 2},
	}
}

func TestQueryTraceAcrossSearchers(t *testing.T) {
	corpus := traceCorpus(t)
	q := corpus[3]
	for name, ti := range traceSearchers(t, corpus) {
		idx := ti.Index
		t.Run(name, func(t *testing.T) {
			var tr Trace
			start := time.Now()
			hits := idx.Search(q, QueryTrace(&tr))
			wall := time.Since(start).Nanoseconds()
			if len(hits) == 0 {
				t.Fatal("corpus query found nothing")
			}
			ps := tr.Phases()
			if len(ps) != 4 {
				t.Fatalf("phases = %+v", ps)
			}
			var sum int64
			byName := map[string]PhaseTiming{}
			for _, p := range ps {
				if p.Nanos < 0 || p.Count < 0 {
					t.Fatalf("negative stat: %+v", p)
				}
				sum += p.Nanos
				byName[p.Phase] = p
			}
			if sum == 0 {
				t.Fatal("all phases zero for a traced corpus query")
			}
			if sum != tr.TotalNanos() {
				t.Fatalf("phase sum %d != TotalNanos %d", sum, tr.TotalNanos())
			}
			// Exclusive phase times can't exceed the caller-observed wall
			// time. (For parallel searchers the per-shard traces are summed
			// after the merge, so allow the shard-concurrency factor.)
			limit := wall * int64(ti.shards)
			if sum > limit {
				t.Fatalf("phase sum %d > wall*shards %d", sum, limit)
			}
			if byName["selection"].Count == 0 || byName["probe"].Count == 0 {
				t.Fatalf("selection/probe never counted: %+v", ps)
			}
			if byName["verify"].Count == 0 {
				t.Fatalf("a query with hits must verify candidates: %+v", ps)
			}

			// Results must be identical with and without tracing.
			plain := idx.Search(q)
			if len(plain) != len(hits) {
				t.Fatalf("tracing changed results: %d vs %d", len(hits), len(plain))
			}

			// A second traced query accumulates; Reset zeroes.
			idx.Search(q, QueryTrace(&tr))
			if tr.TotalNanos() <= sum {
				t.Fatalf("trace did not accumulate: %d after second query (was %d)", tr.TotalNanos(), sum)
			}
			tr.Reset()
			if tr.TotalNanos() != 0 {
				t.Fatalf("Reset left %d nanos", tr.TotalNanos())
			}
		})
	}
}

func TestQueryTraceSeq(t *testing.T) {
	corpus := traceCorpus(t)
	s, err := NewSearcher(corpus, 2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	n := 0
	for range s.SearchSeq(corpus[0], QueryTrace(&tr)) {
		n++
	}
	if n == 0 {
		t.Fatal("no hits")
	}
	if tr.TotalNanos() == 0 {
		t.Fatal("SearchSeq ignored the trace")
	}
}

// The nil QueryTrace option must be a no-op, not a panic.
func TestQueryTraceNil(t *testing.T) {
	corpus := traceCorpus(t)
	s, err := NewSearcher(corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Search(corpus[0], QueryTrace(nil)); len(got) == 0 {
		t.Fatal("nil-trace search broke")
	}
}
