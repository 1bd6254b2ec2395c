package passjoin

import (
	"cmp"
	"iter"
	"runtime"
	"slices"
)

// ShardedSearcher is the serving-layer searcher: a Searcher whose index is
// built in parallel. Pass-Join's index is already partitioned by string
// length into independent groups (§3.2), so WithShards(n) workers build
// one frozen index together, largest group first, with nothing to merge —
// and a query probes that one index once, on the caller's goroutine, at a
// cost that does not depend on n. Ids are corpus positions and results are
// exactly Searcher's at every n.
//
// Any number of goroutines may call Search at once: each query checks a
// snapshot (shared frozen arena, private scratch) out of a pool, so
// throughput scales with concurrent callers. The trade: one expensive query
// on an otherwise idle many-core machine is not split across cores.
// (Splitting was measured and lost on both counts — every partition
// repeated the substring selection and the table lookups, and the
// goroutine hand-offs cost more than a whole short-string probe; see the
// "Sharding" section of docs/ARCHITECTURE.md for the numbers.)
//
// This is the serving-layer counterpart of the batch joins: cmd/passjoind
// exposes a ShardedSearcher over HTTP.
type ShardedSearcher struct {
	s       *Searcher
	workers int
}

// NewShardedSearcher indexes corpus for threshold-tau queries with
// WithShards(n) build workers (default: GOMAXPROCS). WithStats reports the
// build counters, the same figures NewSearcher reports.
func NewShardedSearcher(corpus []string, tau int, opts ...Option) (*ShardedSearcher, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	return buildSharded(slices.Clone(corpus), tau, cfg)
}

// buildSharded indexes corpus, which the searcher keeps, with the build
// workers cfg resolves to: the one build path under the constructor and the
// snapshot reader.
func buildSharded(corpus []string, tau int, cfg config) (*ShardedSearcher, error) {
	workers := cfg.buildWorkers(len(corpus))
	s, err := buildSearcher(corpus, tau, cfg, workers)
	if err != nil {
		return nil, err
	}
	return &ShardedSearcher{s: s, workers: workers}, nil
}

// buildWorkers resolves WithShards for a static corpus of n strings:
// GOMAXPROCS when unset, never more than one worker per string, at least 1.
func (c config) buildWorkers(n int) int {
	w := c.shards
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// Tau returns the searcher's build threshold — the largest threshold a
// query may ask for.
func (ss *ShardedSearcher) Tau() int { return ss.s.tau }

// Len returns the corpus size.
func (ss *ShardedSearcher) Len() int { return ss.s.Len() }

// NumShards returns the resolved WithShards value: the number of workers
// the index was built with.
func (ss *ShardedSearcher) NumShards() int { return ss.workers }

// At returns the id-th corpus string (ids are positions in the corpus
// slice passed to NewShardedSearcher, same as Searcher). It panics when id
// is out of range; Get is the checked form.
func (ss *ShardedSearcher) At(id int) string { return ss.s.At(id) }

// Get returns the id-th corpus string, reporting false instead of
// panicking when id is out of range.
func (ss *ShardedSearcher) Get(id int) (string, bool) { return ss.s.Get(id) }

// All iterates over every corpus string as (id, doc) pairs in ascending
// id order — the static counterpart of DynamicSearcher.All, so the
// serving layer's document-listing endpoint works over either index
// kind.
func (ss *ShardedSearcher) All() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for id := 0; id < ss.Len(); id++ {
			if !yield(id, ss.At(id)) {
				return
			}
		}
	}
}

// Search returns every corpus string within the threshold of q — the
// build threshold, or any smaller per-query threshold given with QueryTau
// — sorted by ascending distance (ties by corpus index). It is safe for
// concurrent use from any number of goroutines.
func (ss *ShardedSearcher) Search(q string, opts ...QueryOption) []Match {
	return ss.s.Search(q, opts...)
}

// SearchTopK returns the k closest corpus strings to q among those within
// the indexed threshold, sorted by ascending distance (ties by corpus
// index). Fewer than k matches are returned when fewer exist within the
// threshold; k <= 0 returns nil. Safe for concurrent use.
//
// Deprecated: use Search(q, QueryTopK(k)), which composes with the other
// per-query options.
func (ss *ShardedSearcher) SearchTopK(q string, k int) []Match {
	return ss.s.SearchTopK(q, k)
}

// SearchSeq streams matches for q as the probe verifies them, in no
// particular order (use Search for ranked output; with QueryTopK the
// ranked matches are materialized first and yielded in order). Breaking
// out of the range loop abandons the rest of the probe. Safe for
// concurrent use.
func (ss *ShardedSearcher) SearchSeq(q string, opts ...QueryOption) iter.Seq[Match] {
	return ss.s.SearchSeq(q, opts...)
}

// sortMatches orders by ascending distance, ties by corpus index.
func sortMatches(out []Match) {
	slices.SortFunc(out, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}
