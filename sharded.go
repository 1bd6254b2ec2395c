package passjoin

import (
	"iter"
	"runtime"
	"sort"
	"sync"

	"passjoin/internal/core"
	"passjoin/internal/metrics"
	"passjoin/internal/obs"
)

// ShardedSearcher answers approximate string search queries like Searcher,
// but partitions the corpus across N independent segment indices
// (hash-partitioned by record ID: record i lives in shard i mod N) and
// fans every query out to all shards in parallel, merging the per-shard
// results. Two things follow from the partitioning:
//
//   - Queries are served concurrently without caller-side cloning: each
//     shard keeps a pool of read-only index snapshots, so any number of
//     goroutines may call Search at once.
//   - Each shard's inverted lists are ~1/N the size and the result set
//     stays exactly the same (the partition index is probed per shard and
//     the union of shard answers is the full answer). Sharding does not
//     make a single short-string query faster: every shard repeats the
//     substring selection and the table lookups, and the fan-out costs
//     goroutine hand-offs, so the bench/ harness measures
//     sharded.search_ns at 10.4 / 29.1 / 31.5 µs for 1 / 2 / 4 shards on
//     100k author names at τ=2 (2 vCPUs; bench/baseline/result-trace.json).
//     What shards buy is build parallelism and per-shard snapshot pools.
//
// Per-query options thread through the fan-out: QueryTau tightens every
// shard's probe, QueryTopK ranks the merged result, QueryLimit caps each
// shard's collection and the merged set.
//
// This is the serving-layer counterpart of the batch joins: cmd/passjoind
// exposes a ShardedSearcher over HTTP.
type ShardedSearcher struct {
	shards []*searchShard
	tau    int
	total  int
}

// searchShard is one hash partition: an immutable frozen index plus a pool
// of query snapshots (frozen arena shared, scratch state owned) so
// concurrent queries never contend on verifier scratch or dedup stamps.
// The shard's mutable build index is discarded at seal time — every pooled
// snapshot probes the same contiguous CSR arena.
type searchShard struct {
	base *core.Matcher
	pool sync.Pool
}

func (sh *searchShard) acquire() *core.Matcher {
	return sh.pool.Get().(*core.Matcher)
}

func (sh *searchShard) release(m *core.Matcher) { sh.pool.Put(m) }

// NewShardedSearcher indexes corpus for threshold-tau queries across
// WithShards(n) partitions (default: GOMAXPROCS). Shards are built in
// parallel; WithStats reports the build counters aggregated over all
// shards (IndexBytes/IndexEntries sum to the total footprint).
func NewShardedSearcher(corpus []string, tau int, opts ...Option) (*ShardedSearcher, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	n := cfg.shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(corpus) {
		n = len(corpus)
	}
	if n < 1 {
		n = 1
	}

	ss := &ShardedSearcher{
		shards: make([]*searchShard, n),
		tau:    tau,
		total:  len(corpus),
	}
	parts := make([]*metrics.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var st *metrics.Stats
			if cfg.stats != nil {
				st = &metrics.Stats{}
				parts[s] = st
			}
			m, err := core.NewMatcher(tau, cfg.sel.internal(), cfg.ver.internal(), st)
			if err != nil {
				errs[s] = err
				return
			}
			for i := s; i < len(corpus); i += n {
				m.InsertSilent(corpus[i])
			}
			m.Seal()
			sh := &searchShard{base: m}
			sh.pool.New = func() any { return sh.base.Snapshot() }
			ss.shards[s] = sh
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cfg.stats.fillMerged(parts)
	return ss, nil
}

// Tau returns the searcher's build threshold — the largest threshold a
// query may ask for.
func (ss *ShardedSearcher) Tau() int { return ss.tau }

// Len returns the corpus size.
func (ss *ShardedSearcher) Len() int { return ss.total }

// NumShards returns the number of index partitions.
func (ss *ShardedSearcher) NumShards() int { return len(ss.shards) }

// At returns the id-th corpus string (ids are positions in the corpus
// slice passed to NewShardedSearcher, same as Searcher). It panics when id
// is out of range; Get is the checked form.
func (ss *ShardedSearcher) At(id int) string {
	n := len(ss.shards)
	return ss.shards[id%n].base.String(id / n)
}

// Get returns the id-th corpus string, reporting false instead of
// panicking when id is out of range.
func (ss *ShardedSearcher) Get(id int) (string, bool) {
	if id < 0 || id >= ss.total {
		return "", false
	}
	return ss.At(id), true
}

// All iterates over every corpus string as (id, doc) pairs in ascending
// id order — the static counterpart of DynamicSearcher.All, so the
// serving layer's document-listing endpoint works over either index
// kind.
func (ss *ShardedSearcher) All() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for id := 0; id < ss.total; id++ {
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
	qc := resolveQuery(ss.tau, opts)
	if qc.empty {
		return nil
	}
	return ss.search(q, qc)
}

// SearchTopK returns the k closest corpus strings to q among those within
// the indexed threshold, sorted by ascending distance (ties by corpus
// index). Fewer than k matches are returned when fewer exist within the
// threshold; k <= 0 returns nil. Safe for concurrent use.
//
// Deprecated: use Search(q, QueryTopK(k)), which composes with the other
// per-query options.
func (ss *ShardedSearcher) SearchTopK(q string, k int) []Match {
	return ss.Search(q, QueryTopK(k))
}

// SearchSeq streams matches for q shard by shard, in no particular order
// (use Search for ranked output; with QueryTopK the ranked matches are
// materialized first and yielded in order). Breaking out of the range
// loop abandons the rest of the probe. The shards are probed sequentially
// — SearchSeq trades the fan-out parallelism for laziness, which wins
// when the consumer exits early. Safe for concurrent use.
func (ss *ShardedSearcher) SearchSeq(q string, opts ...QueryOption) iter.Seq[Match] {
	qc := resolveQuery(ss.tau, opts)
	return func(yield func(Match) bool) {
		if qc.empty {
			return
		}
		if qc.topk > 0 {
			for _, m := range ss.search(q, qc) {
				if !yield(m) {
					return
				}
			}
			return
		}
		n := len(ss.shards)
		remaining := qc.limit // 0 = unlimited
		for si, sh := range ss.shards {
			stopped := false
			delivered := 0
			func() {
				m := sh.acquire()
				// Deferred like Searcher.SearchSeq: a panicking consumer
				// must not strand the snapshot outside the pool.
				defer sh.release(m)
				m.QuerySeq(q, core.QueryOpts{Tau: qc.tau, Limit: remaining, Trace: qc.trace}, func(h core.Hit) bool {
					delivered++
					if !yield(Match{ID: int(h.ID)*n + si, Dist: int(h.Dist)}) {
						stopped = true
						return false
					}
					return true
				})
			}()
			if stopped {
				return
			}
			if qc.limit > 0 {
				remaining -= delivered
				if remaining <= 0 {
					return
				}
			}
		}
	}
}

// search fans q out to every shard, rewrites local ids to global ones
// (global = local*N + shard), and merges. The fan-out runs on goroutines
// only when more than one CPU is available — on a single core the
// parallelism cannot pay for its scheduling overhead, and probing the
// shards in-line on the caller's goroutine is strictly faster.
func (ss *ShardedSearcher) search(q string, qc queryConfig) []Match {
	n := len(ss.shards)
	o := qc.coreOpts()
	parts := make([][]Match, n)
	if n == 1 || runtime.GOMAXPROCS(0) == 1 {
		for s, sh := range ss.shards {
			parts[s] = sh.query(q, n, s, o)
		}
	} else {
		// A trace is single-goroutine state: give each shard its own and
		// merge after the fan-out joins (traced queries only — the extra
		// allocation never touches the untraced path).
		var traces []obs.QueryTrace
		if o.Trace != nil {
			traces = make([]obs.QueryTrace, n)
		}
		var wg sync.WaitGroup
		for s, sh := range ss.shards {
			wg.Add(1)
			go func(s int, sh *searchShard) {
				defer wg.Done()
				so := o
				if traces != nil {
					so.Trace = &traces[s]
				}
				parts[s] = sh.query(q, n, s, so)
			}(s, sh)
		}
		wg.Wait()
		for i := range traces {
			o.Trace.Merge(&traces[i])
		}
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Match, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return qc.finish(out)
}

// query runs one shard probe on a pooled snapshot and maps local ids back
// to global corpus ids. Distances come from the probe's verification pass;
// no per-hit edit-distance recomputation.
func (sh *searchShard) query(q string, n, s int, o core.QueryOpts) []Match {
	m := sh.acquire()
	hits := m.QueryOpt(q, o)
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{ID: int(h.ID)*n + s, Dist: int(h.Dist)}
	}
	sh.release(m)
	return out
}

// sortMatches orders by ascending distance, ties by corpus index.
func sortMatches(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
}
