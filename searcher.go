package passjoin

import (
	"iter"
	"slices"

	"passjoin/internal/core"
)

// Searcher answers approximate string search queries against a fixed
// corpus: given a query q, it returns the corpus strings within the
// threshold. This is the "approximate string searching" problem
// of the paper's related work, answered with the same partition index —
// the corpus is segment-indexed once, queries probe with multi-match-aware
// substring selection.
//
// Construction bulk-builds the index straight into its frozen form (see
// docs/ARCHITECTURE.md) with WithShards workers. Pass-Join's index is
// already partitioned by string length into independent groups (§3.2), so
// the workers build one frozen index together, largest group first, with
// nothing to merge: queries probe flat hash tables over packed posting
// lists, once, on the caller's goroutine, at a cost that does not depend on
// the worker count. Ids are corpus positions, and results are the same at
// every worker count.
//
// A Searcher is immutable after construction and safe for concurrent use
// by any number of goroutines: query scratch state (verifier buffers,
// dedup stamps) lives in the matcher's pool of probers, which all read the
// one frozen arena, so throughput scales with concurrent callers. The
// trade: one expensive query on an otherwise idle many-core machine is not
// split across cores (splitting was measured and lost; see the "Sharding"
// section of docs/ARCHITECTURE.md).
//
// The threshold passed at construction is the partition threshold — the
// largest the index can answer. Any smaller threshold is served exactly
// from the same index with QueryTau; see Index.
type Searcher struct {
	m       *core.Matcher // the build matcher's sink-less snapshot
	tau     int
	workers int
}

// ShardedSearcher is the name Searcher had when a second static searcher
// type built the same index in parallel.
//
// Deprecated: use Searcher, whose constructors honor WithShards.
type ShardedSearcher = Searcher

// Match is one search hit: the corpus index and the exact edit distance.
type Match struct {
	ID   int
	Dist int
}

// NewSearcher indexes corpus for queries at thresholds up to tau with
// WithShards build workers (default: GOMAXPROCS). WithStats reports the
// build-time counters; queries run on a snapshot without the sink and are
// not accumulated into it — concurrent queries would otherwise race on its
// plain counters.
func NewSearcher(corpus []string, tau int, opts ...Option) (*Searcher, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	return buildSearcher(slices.Clone(corpus), tau, cfg)
}

// NewShardedSearcher is NewSearcher.
//
// Deprecated: use NewSearcher.
func NewShardedSearcher(corpus []string, tau int, opts ...Option) (*ShardedSearcher, error) {
	return NewSearcher(corpus, tau, opts...)
}

// buildSearcher indexes corpus, which the searcher keeps, with the build
// workers cfg resolves to — never more than one per string — and keeps the
// matcher's sink-less snapshot, whose prober pool makes concurrent Search
// calls race-free.
func buildSearcher(corpus []string, tau int, cfg config) (*Searcher, error) {
	workers := max(1, min(cfg.workers(), len(corpus)))
	inner := cfg.coreOptions(tau)
	m, err := core.BuildSealedMatcher(tau, inner.Selection, inner.Verification, inner.Stats, corpus, workers)
	if err != nil {
		return nil, err
	}
	return &Searcher{m: m.Snapshot(), tau: tau, workers: workers}, nil
}

// Tau returns the searcher's build threshold — the largest threshold a
// query may ask for.
func (s *Searcher) Tau() int { return s.tau }

// NumShards returns the resolved WithShards value: the number of workers
// the index was built with.
func (s *Searcher) NumShards() int { return s.workers }

// Search returns every corpus string within the threshold of q — the build
// threshold, or any smaller per-query threshold given with QueryTau —
// sorted by ascending distance (ties by corpus index). Distances are
// recovered from the verification pass itself; no separate edit-distance
// computation runs per hit. Safe for concurrent use.
func (s *Searcher) Search(q string, opts ...QueryOption) []Match {
	qc := resolveQuery(s.tau, opts)
	if qc.empty {
		return nil
	}
	return qc.finish(matchesFromHits(s.m.QueryOpt(q, qc.coreOpts())))
}

// SearchSeq streams matches for q as the probe verifies them, in no
// particular order (use Search for ranked output; with QueryTopK the
// ranked matches are materialized first and yielded in order). Breaking
// out of the range loop abandons the rest of the probe — the cheap way to
// answer "is anything within distance t of q?". Safe for concurrent use.
func (s *Searcher) SearchSeq(q string, opts ...QueryOption) iter.Seq[Match] {
	qc := resolveQuery(s.tau, opts)
	return func(yield func(Match) bool) {
		if qc.empty {
			return
		}
		if qc.topk > 0 {
			for _, m := range qc.finish(matchesFromHits(s.m.QueryOpt(q, qc.coreOpts()))) {
				if !yield(m) {
					return
				}
			}
			return
		}
		s.m.QuerySeq(q, qc.coreOpts(), func(h core.Hit) bool {
			return yield(Match{ID: int(h.ID), Dist: int(h.Dist)})
		})
	}
}

// Len returns the corpus size.
func (s *Searcher) Len() int { return s.m.Len() }

// At returns the id-th corpus string. It panics when id is out of range;
// Get is the checked form.
func (s *Searcher) At(id int) string { return s.m.String(id) }

// Get returns the id-th corpus string, reporting false instead of
// panicking when id is out of range.
func (s *Searcher) Get(id int) (string, bool) {
	if id < 0 || id >= s.m.Len() {
		return "", false
	}
	return s.m.String(id), true
}

// All iterates over every corpus string as (id, doc) pairs in ascending id
// order — the static counterpart of DynamicSearcher.All, so the serving
// layer's document-listing endpoint works over either index kind.
func (s *Searcher) All() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for id := range s.Len() {
			if !yield(id, s.At(id)) {
				return
			}
		}
	}
}

// matchesFromHits converts engine hits to public matches.
func matchesFromHits(hits []core.Hit) []Match {
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{ID: int(h.ID), Dist: int(h.Dist)}
	}
	return out
}
