package main

import (
	"bytes"
	"fmt"
	"time"

	"passjoin"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
)

const searchTau = 2

// searchInputs generates the corpus and query set shared by the four
// search workloads: Author(n) and the distinct hit/near-miss/miss mix over
// it that README.md calls Q-author.
func (h *harness) searchInputs(res *wlResult) (corpus, queries []string) {
	start := time.Now()
	corpus = shuffled(dataset.Author(h.sz.AuthorN, corpusSeed), h.opts.seed)
	queries = makeQueries(corpus, h.sz.QueryN, h.opts.seed)
	res.GenS = time.Since(start).Seconds()
	res.Counters["corpus_hash48"] = int64(hashStrings(corpus) >> 16)
	res.Counters["query_hash48"] = int64(hashStrings(queries) >> 16)
	return corpus, queries
}

// runSearchLib is the end-to-end pass of search-lib: C goroutines of
// back-to-back Search calls on a default-shards ShardedSearcher.
//
//	setup_s    NewShardedSearcher over the corpus
//	ops_per_s  completed searches per second at C clients (ISSUE 11: search_qps)
//	op_p50_us  Search latency, median                    (search_p50_us)
//	mem_mb     live heap the built index holds           (index_live_mb)
func (h *harness) runSearchLib() (*wlResult, error) {
	res := newResult(wlSearchLib)
	corpus, queries := h.searchInputs(res)
	bufs := h.latencyBuffers(h.sz.SearchOps)

	var ss *passjoin.ShardedSearcher
	var setups []float64
	var liveMB float64
	for h.setupAgain(setups) {
		ss = nil
		before := liveHeapMB()
		start := time.Now()
		var err error
		if ss, err = passjoin.NewShardedSearcher(corpus, searchTau); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		liveMB = liveHeapMB() - before
	}
	res.setupTimes(setups)
	res.Counters["shards"] = int64(ss.NumShards())

	h.checkSearchOracle(res, ss, identityIDs(len(corpus)), corpus, queries, searchTau)
	counts := h.matchCounts(ss, queries)
	res.Counters["query_set_matches"] = sumCounts(counts)

	h.searchRounds(res, h.sz.SearchOps, counts, bufs, func(g, qi int) int { return len(ss.Search(queries[qi])) })
	res.set(endToEndSpecs, mMemMB, liveMB)
	return res, nil
}

// serialPass times fn over every query, once per repetition, and returns
// the best ns/op with the allocations and bytes per op of the last pass.
func serialPass(reps int, queries []string, fn func(q string)) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	var m0, b0, m1, b1 uint64
	best := bestOf(reps, func() {
		m0, b0 = allocCounters()
		for _, q := range queries {
			fn(q)
		}
		m1, b1 = allocCounters()
	})
	n := float64(len(queries))
	return float64(best) / n, float64(m1-m0) / n, float64(b1-b0) / n
}

// buildFrozen indexes corpus the way a one-shard searcher does and
// freezes it, reporting the index-layer build rungs.
func (h *harness) buildFrozen(res *wlResult, corpus []string, tau int) *index.Frozen {
	n := float64(len(corpus))
	var idx *index.Index
	build := bestOf(h.sz.RungReps, func() {
		idx = index.New(tau)
		for id, s := range corpus {
			if len(s) >= tau+1 {
				idx.Add(int32(id), s)
			}
		}
	})
	var fz *index.Frozen
	freeze := bestOf(h.sz.RungReps, func() { fz = idx.Freeze(corpus) })
	res.layer("index.build_ns_per_string", float64(build)/n)
	res.layer("index.entries", float64(idx.Entries()))
	res.layer("index.freeze_ns_per_string", float64(freeze)/n)
	res.layer("index.frozen_bytes_per_string", float64(fz.Bytes())/n)
	return fz
}

// probe is one segment-table lookup a query performs.
type probe struct {
	g *index.FrozenGroup
	i int
	w string
}

// queryProbes enumerates the (length, slot, substring) lookups the prober
// makes for the given queries, in its order.
func queryProbes(fz *index.Frozen, queries []string, tau int) []probe {
	var out []probe
	for _, s := range queries {
		for l := max(len(s)-tau, tau+1); l <= len(s)+tau; l++ {
			g := fz.Group(l)
			if g == nil {
				continue
			}
			for i := 1; i <= tau+1; i++ {
				pi, li := g.Seg(i)
				lo, hi := selection.MultiMatch.Window(len(s), l, tau, i, pi, li)
				for p := lo; p <= hi; p++ {
					out = append(out, probe{g, i, s[p-1 : p-1+li]})
				}
			}
		}
	}
	return out
}

// traceSearchLib is the per-layer pass of search-lib: the rungs from the
// segment table up to the sharded searcher, each a serial pass over the
// same queries, then one untraced and one traced closed-loop round.
func (h *harness) traceSearchLib(rec *recorder) (*wlResult, error) {
	res := newResult(wlSearchLib)
	corpus, queries := h.searchInputs(res)
	rq := queries[:min(h.sz.RungQueries, len(queries))]
	reps := h.sz.RungReps

	fz := h.buildFrozen(res, corpus, searchTau)
	probes := queryProbes(fz, rq[:len(rq)/4], searchTau)
	hits := 0
	probeNs := bestOf(reps, func() {
		hits = 0
		for _, p := range probes {
			if len(p.g.List(p.i, p.w)) > 0 {
				hits++
			}
		}
	})
	res.layer("index.probe_ns", float64(probeNs)/float64(len(probes)))
	res.layer("index.probe_hit_ratio", float64(hits)/float64(len(probes)))
	res.Counters["probes"] = int64(len(probes))

	// core: one sealed matcher over the whole corpus. Timed without a
	// stats sink (the searchers above it run without one); the work
	// counters come from a separate pass with the sink attached.
	newMatcher := func(st *metrics.Stats) (*core.Matcher, error) {
		return core.NewSealedMatcher(searchTau, selection.MultiMatch, core.VerifyExtensionShared, st, corpus, fz)
	}
	m, err := newMatcher(nil)
	if err != nil {
		return nil, err
	}
	qo := core.QueryOpts{Tau: searchTau}
	coreNs, coreAllocs, _ := serialPass(reps, rq, func(q string) { m.QueryOpt(q, qo) })
	res.layer("core.query_ns", coreNs)
	res.layer("core.query_allocs", coreAllocs)
	var st metrics.Stats
	if m, err = newMatcher(&st); err != nil {
		return nil, err
	}
	st = metrics.Stats{}
	for _, q := range rq {
		m.QueryOpt(q, qo)
	}
	res.layer("core.query_candidates_per_query", float64(st.Candidates)/float64(len(rq)))
	res.layer("core.query_dp_cells_per_query", float64(st.DPCells)/float64(len(rq)))

	s1, err := passjoin.NewSearcher(corpus, searchTau)
	if err != nil {
		return nil, err
	}
	sNs, sAllocs, _ := serialPass(reps, rq, func(q string) { s1.Search(q) })
	res.layer("searcher.search_ns", sNs)
	res.layer("searcher.search_self_ns", sNs-coreNs)
	res.layer("searcher.search_allocs", sAllocs)

	var buf bytes.Buffer
	write := bestOf(reps, func() {
		buf.Reset()
		if _, err = s1.WriteTo(&buf); err != nil {
			res.failure("Searcher.WriteTo: %v", err)
		}
	})
	res.layer("persist.write_s", write.Seconds())
	res.layer("persist.bytes_per_string", float64(buf.Len())/float64(len(corpus)))
	read := bestOf(reps, func() {
		if _, err = passjoin.ReadSearcherFrom(bytes.NewReader(buf.Bytes())); err != nil {
			res.failure("ReadSearcherFrom: %v", err)
		}
	})
	res.layer("persist.read_s", read.Seconds())

	// sharded: the same queries at 1, 2 and 4 shards, serially for ns/op
	// and with C clients for throughput — the two pull apart as shards are
	// added on a fixed core count.
	counts := h.matchCounts(s1, queries)
	bufs := h.latencyBuffers(h.sz.TraceSearchOps)
	defaultShards, err := passjoin.NewShardedSearcher(corpus, searchTau)
	if err != nil {
		return nil, err
	}
	var defaultNs float64
	for _, n := range []int{1, 2, 4} {
		ss, err := passjoin.NewShardedSearcher(corpus, searchTau, passjoin.WithShards(n))
		if err != nil {
			return nil, err
		}
		ns, allocs, _ := serialPass(reps, rq, func(q string) { ss.Search(q) })
		res.layer(fmt.Sprintf("sharded.search_ns.s%d", n), ns)
		do := func(g, qi int) int { return len(ss.Search(queries[qi])) }
		qps := 0.0
		for r := 0; r < reps; r++ {
			qps = max(qps, h.searchRound(res, r, h.sz.TraceSearchOps/2, counts, bufs, do).qps)
		}
		res.layer(fmt.Sprintf("sharded.qps.s%d", n), qps)
		if n == defaultShards.NumShards() {
			defaultNs = ns
			res.layer("sharded.search_allocs", allocs)
		}
	}
	if defaultNs == 0 { // default shard count is not 1, 2 or 4 on this box
		var allocs float64
		defaultNs, allocs, _ = serialPass(reps, rq, func(q string) { defaultShards.Search(q) })
		res.layer("sharded.search_allocs", allocs)
	}
	res.layer("sharded.fanout_self_ns", defaultNs-sNs)
	res.Counters["shards"] = int64(defaultShards.NumShards())

	// The workload itself: one round untraced, one with a span around
	// every Search.
	do := func(g, qi int) int { return len(defaultShards.Search(queries[qi])) }
	h.searchRound(newResult(""), -1, h.sz.TraceSearchOps, counts, bufs, do)
	untraced := h.searchRound(res, 0, h.sz.TraceSearchOps, counts, bufs, do)
	lanes := rec.lanes(h.clients, h.sz.TraceSearchOps)
	traced := h.searchRound(res, 0, h.sz.TraceSearchOps, counts, bufs, func(g, qi int) int {
		s := rec.now()
		n := len(defaultShards.Search(queries[qi]))
		lanes[g].add("sharded.Search", s, rec.now(), "", queries[qi])
		return n
	})
	flushLanes(lanes)
	res.layer(mTailP99Us, untraced.p99Us)
	res.layer("trace.overhead_ratio", traced.p50Us/untraced.p50Us)
	res.Info["untraced_p50_us"] = untraced.p50Us
	res.Info["traced_p50_us"] = traced.p50Us
	res.Rounds = 1
	return res, nil
}
