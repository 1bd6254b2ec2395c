package passjoin

import (
	"fmt"
	"iter"

	"passjoin/internal/core"
	"passjoin/internal/obs"
)

// Index is the read contract shared by both searchers — the static Searcher
// and the live-update DynamicSearcher. One segment index, built once at a
// threshold, answers many query shapes: the full match set, a smaller
// per-query threshold (QueryTau — exact via the pigeonhole bound, since a
// string partitioned into τ+1 segments shares a segment with any query
// within τ′ ≤ τ edits), the k nearest (QueryTopK), a cheap cap
// (QueryLimit), or a lazy stream (SearchSeq).
//
// All implementations are safe for concurrent use by any number of
// goroutines.
type Index interface {
	// Search returns every indexed string within the threshold of q —
	// the index threshold, or the QueryTau override — sorted by ascending
	// distance with ties broken by id.
	Search(q string, opts ...QueryOption) []Match
	// SearchSeq streams matches as the probe verifies them, in no
	// particular order, stopping the underlying probe as soon as the
	// consumer breaks out of the range loop. With QueryTopK the matches
	// are ranked first (materialized) and yielded in Search order.
	SearchSeq(q string, opts ...QueryOption) iter.Seq[Match]
	// Get returns the string stored under id and whether that id is live.
	// Unlike At it never panics: an out-of-range, unknown or deleted id
	// reports false.
	Get(id int) (string, bool)
	// Len returns the number of live indexed strings.
	Len() int
	// Tau returns the threshold the index was built for — the largest
	// value QueryTau accepts.
	Tau() int
}

// Both searchers converge on the one Index contract.
var (
	_ Index = (*Searcher)(nil)
	_ Index = (*DynamicSearcher)(nil)
)

// queryConfig is the resolved form of a Search call's QueryOptions.
type queryConfig struct {
	tau    int // per-query threshold; -1 until resolved
	tauSet bool
	topk   int  // > 0: return only the k nearest
	limit  int  // > 0: stop collecting after this many matches
	empty  bool // QueryTopK/QueryLimit with a non-positive argument
	trace  *obs.QueryTrace
}

// QueryOption customizes one Search or SearchSeq call. Options compose:
// Search(q, QueryTau(1), QueryTopK(5)) answers at threshold 1 and ranks
// the result down to the 5 nearest.
type QueryOption func(*queryConfig)

// QueryTau answers this query at threshold t instead of the index
// threshold. Any 0 ≤ t ≤ Tau() is exact — the τ-segment partition is
// probed with selection windows and verification bounds tightened to t —
// so one index built at the largest threshold serves the whole spectrum
// below it. Search panics when t is negative or exceeds the index
// threshold (a partition built for τ cannot answer τ′ > τ exactly);
// servers should validate user-supplied thresholds first.
func QueryTau(t int) QueryOption {
	return func(qc *queryConfig) { qc.tau, qc.tauSet = t, true }
}

// QueryTopK keeps only the k nearest matches (ascending distance, ties by
// id), selected with a k-bounded heap rather than a full sort. k <= 0
// yields no matches.
func QueryTopK(k int) QueryOption {
	return func(qc *queryConfig) {
		qc.topk = k
		if k <= 0 {
			qc.empty = true
		}
	}
}

// QueryLimit stops the probe after n matches have been found. It is a
// cheap cap for existence-style queries and early-exit streams, not a
// ranking: which n of the matches are kept is unspecified (use QueryTopK
// for the nearest). Combined with QueryTopK, the cap applies to
// collection first and the ranking sees only the capped set. n <= 0
// yields no matches.
func QueryLimit(n int) QueryOption {
	return func(qc *queryConfig) {
		qc.limit = n
		if n <= 0 {
			qc.empty = true
		}
	}
}

// QueryTrace records this query's per-phase timing breakdown into t (see
// Trace). The trace is additive — Reset between queries to measure one at
// a time — and must not be shared with a concurrent Search call.
func QueryTrace(t *Trace) QueryOption {
	return func(qc *queryConfig) {
		if t != nil {
			qc.trace = &t.inner
		}
	}
}

// resolveQuery folds opts into a queryConfig and validates the threshold
// against the index's build threshold.
func resolveQuery(indexTau int, opts []QueryOption) queryConfig {
	if len(opts) == 0 { // the common call; below, the options' pointer puts qc on the heap
		return queryConfig{tau: indexTau}
	}
	qc := queryConfig{tau: -1}
	for _, o := range opts {
		if o == nil {
			panic("passjoin: nil QueryOption")
		}
		o(&qc)
	}
	if !qc.tauSet {
		qc.tau = indexTau
	} else if qc.tau < 0 || qc.tau > indexTau {
		panic(fmt.Sprintf("passjoin: QueryTau(%d) outside [0, %d] — an index partitioned for tau=%d answers only thresholds up to it", qc.tau, indexTau, indexTau))
	}
	return qc
}

// coreOpts translates the per-query parameters for the engine.
func (qc queryConfig) coreOpts() core.QueryOpts {
	return core.QueryOpts{Tau: qc.tau, Limit: qc.limit, Trace: qc.trace}
}

// finish applies ranking/ordering to a fully merged match set: top-k when
// requested, otherwise the standard (distance, id) sort with the limit cap.
func (qc queryConfig) finish(out []Match) []Match {
	if qc.topk > 0 {
		return topKMatches(out, qc.topk)
	}
	sortMatches(out)
	if qc.limit > 0 && len(out) > qc.limit {
		out = out[:qc.limit]
	}
	return out
}
