package main

import (
	"slices"
	"time"

	"passjoin"
)

// queryStart is where client goroutine g begins walking the query set in
// round r. Each client walks its own stretch sequentially (wrapping), so
// as long as a client's ops fit in 1/C of the set, no query is sent twice
// within a round.
func (h *harness) queryStart(g, r, nq int) int {
	return (g*(nq/h.clients) + (r+1)*7919) % nq
}

// expectedMatches is the total match count client g must see in round r,
// given the per-query counts established (and oracle-checked) in set-up.
func (h *harness) expectedMatches(counts []int32, g, r, ops int) int64 {
	total := int64(0)
	qi := h.queryStart(g, r, len(counts))
	for i := 0; i < ops; i++ {
		total += int64(counts[qi])
		if qi++; qi == len(counts) {
			qi = 0
		}
	}
	return total
}

// roundStats is what one closed-loop round of searches measured.
type roundStats struct {
	qps, p50Us, p99Us, maxUs float64
}

// searchRound runs one closed-loop round: C client goroutines each issue
// ops searches back to back, the next one only after the previous reply.
// do performs one search of client g with query index qi and returns
// the number of matches, or -1 after marking the failure itself. Per-op
// latencies go to the clients' preallocated buffers. Each client's match
// total is compared with the precomputed one: an O(1) add inside the timed
// region, the comparison outside it.
func (h *harness) searchRound(res *wlResult, r, ops int, counts []int32, bufs [][]int64, do func(g, qi int) int) roundStats {
	got := make([]int64, h.clients)
	failed := make([]bool, h.clients)
	wall := h.inParallel(func(g int) {
		buf := bufs[g][:ops]
		qi := h.queryStart(g, r, len(counts))
		sum := int64(0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			m := do(g, qi)
			t1 := time.Now()
			buf[i] = int64(t1.Sub(t0))
			t0 = t1
			if m < 0 {
				failed[g] = true
			} else {
				sum += int64(m)
			}
			if qi++; qi == len(counts) {
				qi = 0
			}
		}
		got[g] = sum
	})
	var all []int64
	for g := 0; g < h.clients; g++ {
		all = append(all, bufs[g][:ops]...)
		res.ok(ops)
		want := h.expectedMatches(counts, g, r, ops)
		res.check(failed[g] || got[g] == want, "round %d client %d: %d matches in total, want %d", r, g, got[g], want)
	}
	st := roundStats{qps: float64(h.clients*ops) / wall.Seconds()}
	st.p50Us, st.p99Us, st.maxUs = latencies(all)
	return st
}

// searchRounds runs the timed rounds of a search workload after one
// discarded warm-up round and records the rate and the median latency; the
// tail is kept as information (its metric is the traced pass's tail.p99_us).
func (h *harness) searchRounds(res *wlResult, ops int, counts []int32, bufs [][]int64, do func(g, qi int) int) {
	h.searchRound(newResult(""), -1, ops, counts, bufs, do)
	var qps, p50, p99 []float64
	res.Rounds = h.timedRounds(func(r int) {
		st := h.searchRound(res, r, ops, counts, bufs, do)
		qps, p50, p99 = append(qps, st.qps), append(p50, st.p50Us), append(p99, st.p99Us)
	})
	res.rounds(mOpsPerS, qps)
	res.rounds(mOpP50Us, p50)
	res.Info["op_p99_us"] = quietest(p99, lowerIs)
}

// latencyBuffers preallocates one per-op latency buffer per client.
func (h *harness) latencyBuffers(ops int) [][]int64 {
	bufs := make([][]int64, h.clients)
	for g := range bufs {
		bufs[g] = make([]int64, ops)
	}
	return bufs
}

// searchIndex is the read surface the oracles need.
type searchIndex interface {
	Search(q string, opts ...passjoin.QueryOption) []passjoin.Match
}

// bruteForce answers q by scanning every document: the trivial length
// filter, then the banded verifier on every survivor. Matches come back in
// the searchers' order, ascending (distance, id).
func bruteForce(ids []int, docs []string, q string, tau int) []passjoin.Match {
	var out []passjoin.Match
	for i, d := range docs {
		if diff := len(d) - len(q); diff > tau || -diff > tau {
			continue
		}
		if passjoin.Within(d, q, tau) {
			out = append(out, passjoin.Match{ID: ids[i], Dist: passjoin.EditDistance(d, q)})
		}
	}
	slices.SortFunc(out, func(a, b passjoin.Match) int {
		if a.Dist != b.Dist {
			return a.Dist - b.Dist
		}
		return a.ID - b.ID
	})
	return out
}

// checkSearchOracle answers a seeded sample of the queries through idx
// and by brute force over (ids, docs); every disagreement is a failed
// operation.
func (h *harness) checkSearchOracle(res *wlResult, idx searchIndex, ids []int, docs []string, queries []string, tau int) {
	for _, qi := range sampleIndices(h.opts.seed, len(queries), h.sz.OracleQuery) {
		q := queries[qi]
		got, want := idx.Search(q), bruteForce(ids, docs, q, tau)
		res.check(slices.Equal(got, want), "query %q: index found %d matches, brute force %d", q, len(got), len(want))
	}
}

// identityIDs is the id list of a static corpus: document i has id i.
func identityIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// matchCounts runs every query once, untimed, and returns the per-query
// match counts the timed rounds are checked against.
func (h *harness) matchCounts(idx searchIndex, queries []string) []int32 {
	counts := make([]int32, len(queries))
	h.inParallel(func(g int) {
		for i := g; i < len(queries); i += h.clients {
			counts[i] = int32(len(idx.Search(queries[i])))
		}
	})
	return counts
}

func sumCounts(counts []int32) int64 {
	t := int64(0)
	for _, c := range counts {
		t += int64(c)
	}
	return t
}
