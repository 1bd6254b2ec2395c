package passjoin

import (
	"iter"
	"slices"
	"sync"

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
// docs/ARCHITECTURE.md): queries probe flat hash tables over packed
// posting lists rather than per-segment Go maps.
//
// A Searcher is immutable after construction and safe for concurrent use
// by any number of goroutines: query scratch state (verifier buffers,
// dedup stamps) lives in an internal sync.Pool of index snapshots that all
// share the one frozen arena, so no caller-side cloning is needed.
//
// The threshold passed at construction is the partition threshold — the
// largest the index can answer. Any smaller threshold is served exactly
// from the same index with QueryTau; see Index.
type Searcher struct {
	m    *core.Matcher
	tau  int
	pool sync.Pool // *core.Matcher query snapshots (shared arena, private scratch)
}

// Match is one search hit: the corpus index and the exact edit distance.
type Match struct {
	ID   int
	Dist int
}

// NewSearcher indexes corpus for queries at thresholds up to tau.
// WithStats reports the build-time counters (like NewShardedSearcher);
// per-query work runs on pooled snapshots and is not accumulated into the
// sink — concurrent queries would otherwise race on its plain counters.
func NewSearcher(corpus []string, tau int, opts ...Option) (*Searcher, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	return buildSearcher(slices.Clone(corpus), tau, cfg, 1)
}

// buildSearcher indexes corpus with the given number of build workers —
// the one build path of both static searchers. The searcher keeps corpus:
// constructors pass a copy of their caller's slice.
func buildSearcher(corpus []string, tau int, cfg config, workers int) (*Searcher, error) {
	inner := cfg.coreOptions(tau)
	m, err := core.BuildSealedMatcher(tau, inner.Selection, inner.Verification, inner.Stats, corpus, workers)
	if err != nil {
		return nil, err
	}
	cfg.stats.fill()
	return newSearcher(m, tau), nil
}

// newSearcher wraps a sealed matcher, wiring the snapshot pool that makes
// concurrent Search calls race-free: each in-flight query checks out a
// snapshot (shared frozen arena, private scratch) and returns it after.
func newSearcher(m *core.Matcher, tau int) *Searcher {
	s := &Searcher{m: m, tau: tau}
	s.pool.New = func() any { return s.m.Snapshot() }
	return s
}

// Tau returns the searcher's build threshold — the largest threshold a
// query may ask for.
func (s *Searcher) Tau() int { return s.tau }

// Clone returns a searcher that shares this one's immutable frozen index
// but owns its own query scratch state.
//
// Deprecated: a Searcher is safe for concurrent use from any number of
// goroutines — call Search directly instead of cloning per goroutine.
// Clone remains for compatibility and is equivalent to sharing the
// original.
func (s *Searcher) Clone() *Searcher {
	return newSearcher(s.m.Snapshot(), s.tau)
}

// Search returns every corpus string within the threshold of q — the
// build threshold, or any smaller per-query threshold given with QueryTau
// — sorted by ascending distance (ties by corpus index). Distances are
// recovered from the verification pass itself; no separate edit-distance
// computation runs per hit. Safe for concurrent use.
func (s *Searcher) Search(q string, opts ...QueryOption) []Match {
	qc := resolveQuery(s.tau, opts)
	if qc.empty {
		return nil
	}
	return qc.finish(matchesFromHits(s.collect(q, qc)))
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
			for _, m := range qc.finish(matchesFromHits(s.collect(q, qc))) {
				if !yield(m) {
					return
				}
			}
			return
		}
		snap := s.acquire()
		defer s.release(snap)
		snap.QuerySeq(q, qc.coreOpts(), func(h core.Hit) bool {
			return yield(Match{ID: int(h.ID), Dist: int(h.Dist)})
		})
	}
}

// collect runs one pooled query and returns the raw hits. The release is
// deferred so a panic unwinding out of the engine still returns the
// snapshot (reusable — each probe claims a fresh epoch).
func (s *Searcher) collect(q string, qc queryConfig) []core.Hit {
	snap := s.acquire()
	defer s.release(snap)
	return snap.QueryOpt(q, qc.coreOpts())
}

func (s *Searcher) acquire() *core.Matcher  { return s.pool.Get().(*core.Matcher) }
func (s *Searcher) release(m *core.Matcher) { s.pool.Put(m) }

// SearchTopK returns the k closest corpus strings to q among those within
// the threshold, sorted by ascending distance (ties by corpus index).
// Fewer than k matches are returned when fewer exist within the threshold;
// k <= 0 returns nil.
//
// Deprecated: use Search(q, QueryTopK(k)), which composes with the other
// per-query options.
func (s *Searcher) SearchTopK(q string, k int) []Match {
	return s.Search(q, QueryTopK(k))
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

// matchesFromHits converts engine hits to public matches.
func matchesFromHits(hits []core.Hit) []Match {
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{ID: int(h.ID), Dist: int(h.Dist)}
	}
	return out
}
