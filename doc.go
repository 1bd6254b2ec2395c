// Package passjoin is a production-quality Go implementation of Pass-Join,
// the partition-based exact string similarity join of
//
//	Guoliang Li, Dong Deng, Jiannan Wang, Jianhua Feng:
//	"Pass-Join: A Partition-based Method for Similarity Joins",
//	PVLDB 5(3), 2011.
//
// A similarity join finds all pairs of strings whose edit distance is at
// most a threshold τ. Pass-Join partitions every indexed string into τ+1
// disjoint segments; by the pigeonhole principle a similar string must
// contain one segment verbatim, so candidate pairs are generated by looking
// up a provably minimal set of substrings in segment inverted indices and
// then verified with tightly pruned dynamic programming. The method is
// efficient for both short strings (person names) and long strings (paper
// titles), unlike q-gram or trie based joins.
//
// # Quick start
//
//	pairs, err := passjoin.SelfJoin(names, 2)       // ed(a,b) <= 2
//	pairs, err := passjoin.Join(dirty, clean, 2)    // R x S join
//
// Every join runs the paper's full method: multi-match-aware substring
// selection (§4.2) and share-prefix extension verification (§5.3), which
// win at every threshold in its Figs. 12 and 14; internal/repro's
// TestExperiments reproduces those figures with the other methods. Options
// attach instrumentation or set the join's workers:
//
//	var st passjoin.Stats
//	pairs, err := passjoin.SelfJoin(names, 2,
//	        passjoin.WithStats(&st),
//	        passjoin.WithParallelism(8))
//
// Every Option validates its argument and errors from the constructor it
// is passed to; an option a constructor does not honor is silently
// ignored, per this table (the snapshot loader ReadSearcherFrom follows
// NewSearcher):
//
//	Option                SelfJoin/Join  Matcher  NewSearcher    New/OpenDynamicSearcher
//	WithStats             per call       adds up  build only     ignored (use Stats())
//	WithParallelism       honored        ignored  ignored        ignored
//	WithShards            ignored        ignored  build workers  build workers (seed, reopen, compaction)
//	WithCompactThreshold  ignored        ignored  ignored        honored (default 4096 per worker)
//	WithLogger            ignored        ignored  ignored        honored
//	WithMutationHook      ignored        ignored  ignored        honored
//	WithWALSync           ignored        ignored  ignored        OpenDynamicSearcher only
//
// # Streaming and cancellable joins
//
// The Each forms stream results to a callback without materializing the
// result set; returning false stops the join early. The Ctx forms
// additionally honor context cancellation mid-join — the building block
// of the passjoind bulk-join endpoints:
//
//	err := passjoin.SelfJoinEachCtx(ctx, names, 2, func(r, s int) bool {
//	        fmt.Println(names[r], "~", names[s])
//	        return true
//	}, passjoin.WithParallelism(8))
//
// Every join, in all six entry points, runs the paper's scan over a
// sliding window of length groups — the index holds no more than τ+1 or
// 2τ+1 lengths' groups at once — and delivers pairs by non-decreasing length of the longer (for Join:
// the first set's) string, in no particular order within a length: it
// probes a run of equal-length strings at a time. Those runs — lookups,
// signature filter and verification — go to min(max(n, 2), GOMAXPROCS)
// workers for WithParallelism(n): by default, and at n = 1 or 2, the
// caller's goroutine and one helper (none at GOMAXPROCS=1); only n > 2
// adds goroutines. Their pairs go to the callback on the caller's
// goroutine, in the scan's order, so the pairs, their order and the Stats
// — index footprint included — are the same at every parallelism and every
// GOMAXPROCS, a join the callback stops at its k-th pair having counted all
// of the run that held it. A cancelled ctx stops the join promptly — it is
// checked between batches of lookups, not between strings — and surfaces
// ctx.Err(). See docs/ARCHITECTURE.md ("The streaming join path") for the
// design.
//
// Every join entry point runs Pass-Join. The paper's competitors (ED-Join,
// All-Pairs-Ed, Trie-Join, NGPP, Part-Enum) live under internal/ as the
// Fig. 15 baselines of internal/repro's TestExperiments and as the test
// suite's conformance oracles; Pass-Join is the fastest on every regime measured.
//
// The online Matcher supports streaming workloads: inserting a string
// reports all previously inserted strings within the threshold.
//
//	m, _ := passjoin.NewMatcher(2)
//	dups := m.Insert("kaushik chakrab")
//
// # Serving layer: one index, many queries
//
// For query serving, both searchers — Searcher (a fixed corpus) and
// DynamicSearcher (live updates) — implement the one Index interface:
// Search, the streaming SearchSeq, the checked Get, Len and Tau. Every
// searcher is safe for concurrent use by any number of goroutines; query
// scratch state lives in an internal pool of probers.
//
// The threshold passed at construction is the partition threshold — the
// largest the index can answer — not the only one: by the pigeonhole
// argument, a string partitioned into τ+1 segments shares a segment with
// any query within τ′ ≤ τ edits, so one index answers every threshold
// below its build τ exactly. Per-query options select the threshold,
// ranking and result bounds of each call:
//
//	s, _ := passjoin.NewSearcher(corpus, 3, passjoin.WithShards(8))
//	matches := s.Search("kaushik chakrab")                       // all within 3
//	strict := s.Search("kaushik chakrab", passjoin.QueryTau(1))  // exact, same index
//	nearest := s.Search("kaushik", passjoin.QueryTopK(5))        // 5 closest
//	for m := range s.SearchSeq("kaushik", passjoin.QueryLimit(1)) {
//	        // first hit only; the probe stops as soon as the loop breaks
//	}
//
// A Searcher builds its segment index on WithShards workers straight into
// an immutable form (flat hash tables of 8-byte rows instead of Go maps, a
// single posting in its row, longer lists packed per slot) and reports each
// match's exact distance straight out of verification — see
// docs/ARCHITECTURE.md for the bulk build. A query probes that one index
// once, on the caller's goroutine — it first enumerates its selected
// substrings and then resolves their lookups a batch at a time, so the
// cache misses of one query overlap: concurrency comes from concurrent
// callers, and a single expensive query on an otherwise idle many-core
// machine is not split across cores. A Searcher snapshots to a compact
// CRC-protected binary format (WriteTo / ReadSearcherFrom, "PJIX v3") for
// cold starts — the snapshot is the corpus and the threshold, and the
// reader rebuilds the index as NewSearcher would, which is faster than
// loading stored postings was. Every release reads the snapshots of the
// releases before it (v1, v2, and v3 files that still carry an index,
// which is skipped); a release older than v3 rejects a v3 file by its
// version instead of misreading it.
//
// ShardedSearcher and NewShardedSearcher are deprecated names of Searcher
// and NewSearcher.
//
// # Live updates
//
// DynamicSearcher accepts inserts and deletes while serving queries: its
// one index pairs the frozen base with a small mutable delta and a
// tombstone set, and a background compactor folds the delta and the
// tombstones back into a fresh frozen base (swapped in atomically; readers
// never wait for a rebuild). Like Searcher it is not split by document id;
// WithShards sets the workers that build the base.
// OpenDynamicSearcher is the durable variant — every mutation is
// write-ahead-logged before it becomes visible and reopening the same
// directory recovers the exact live corpus from the base snapshot + WAL
// tail, including after a process crash (add WithWALSync to fsync each
// append and extend that to power loss); a directory an older build split
// into several shards is converted to one on open:
//
//	ds, _ := passjoin.OpenDynamicSearcher("./data", corpus, 2)
//	id, _ := ds.Insert("kaushik chakrab") // searchable immediately
//	ds.Delete(id)                         // hidden immediately
//	defer ds.Close()
//
// cmd/passjoind serves either searcher kind over HTTP/JSON (single,
// batch, top-k, streaming dedup, bulk streaming joins, and — in the
// mutable modes — document insert/delete endpoints); docs/API.md and
// internal/server document the wire contract.
//
// # Verification
//
// A candidate pair first meets a one-word filter: every indexed string
// carries a 64-bit histogram of its bytes (32 buckets, counted modulo 4),
// and two strings whose histograms are further apart than 2τ cannot be
// within τ, so most candidates are dropped before their bytes are read.
// The survivors go to the paper's banded dynamic program — τ+1 cells per
// row, stopped early once no cell of a row can still lead to a match,
// which one cell per row decides. Whenever the band is at most 64 cells
// wide, which is every τ ≤ 63, a row is one 64-bit word advanced by Myers'
// bit-parallel step, a constant number of word operations per row; wider
// bands are computed cell by cell. A search that reports distances
// recovers each accepted match's exact one with the Myers bit-parallel
// kernel. Distances and
// thresholds count bytes, not runes: a multi-byte UTF-8 character costs
// as many edits as it has differing bytes. A threshold larger than the
// strings is no costlier than one equal to the longer string's length.
//
// All entry points are exact: they return precisely the pairs (or
// matches over the live corpus) within the threshold, never more, never
// fewer.
package passjoin
