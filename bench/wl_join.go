package main

import (
	"runtime"
	"slices"
	"time"

	"passjoin"
	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// joinInputs generates the corpus of a join workload.
func (h *harness) joinInputs(name string) (corpus []string, tau int) {
	if name == wlJoinLong {
		return shuffled(dataset.AuthorTitle(h.sz.TitleN, corpusSeed), h.opts.seed), 8
	}
	return shuffled(dataset.Author(h.sz.AuthorN, corpusSeed), h.opts.seed), 2
}

// checkJoinOracle joins a seeded subsample and requires the result to
// equal the brute-force join of the same strings.
func (h *harness) checkJoinOracle(res *wlResult, corpus []string, tau int) {
	idx := sampleIndices(h.opts.seed, len(corpus), h.sz.JoinSample)
	sub := make([]string, len(idx))
	for i, j := range idx {
		sub[i] = corpus[j]
	}
	got, err := passjoin.SelfJoin(sub, tau)
	if err != nil {
		res.fail("oracle join: %v", err)
		return
	}
	want := bruteforce.SelfJoin(sub, tau)
	wantPairs := make([]passjoin.Pair, len(want))
	for i, p := range want {
		wantPairs[i] = passjoin.Pair{R: int(p.R), S: int(p.S)}
	}
	slices.SortFunc(wantPairs, func(a, b passjoin.Pair) int {
		if a.R != b.R {
			return a.R - b.R
		}
		return a.S - b.S
	})
	res.check(slices.Equal(got, wantPairs),
		"join of the %d-string subsample has %d pairs, brute force %d", len(sub), len(got), len(wantPairs))
	res.Counters["oracle_pairs"] = int64(len(wantPairs))
}

// checkPairs counts one join as an operation: it fails on an error, on a
// pair count that differs from the first join's, or from the pinned count.
func (h *harness) checkPairs(res *wlResult, what string, pairs []passjoin.Pair, err error) {
	if err != nil {
		res.fail("%s: %v", what, err)
		return
	}
	n := int64(len(pairs))
	want, seen := res.Counters["pairs"]
	if !seen {
		res.Counters["pairs"] = n
		want = n
		if pin, ok := pinnedPairs[res.Name]; ok && !h.opts.quick {
			want = int64(pin)
		}
	}
	res.check(n == want, "%s found %d pairs, want %d", what, n, want)
}

// runJoin is the end-to-end pass of join-short and join-long: R rounds of
// one default-options self join and one WithParallelism(C) self join.
//
//	setup_s    the joins before the first timed one, the first of them cold
//	op_p50_us  one default-options SelfJoin call        (ISSUE 11: join_s)
//	ops_per_s  joins per second with WithParallelism(C) (ISSUE 11: 1/join_par_s)
//	mem_mb     MB allocated by one default-options join (ISSUE 11: join_alloc_mb)
func (h *harness) runJoin(name string) (*wlResult, error) {
	res := newResult(name)
	genStart := time.Now()
	corpus, tau := h.joinInputs(name)
	res.GenS = time.Since(genStart).Seconds()
	res.Counters["corpus_hash48"] = int64(hashStrings(corpus) >> 16)
	h.checkJoinOracle(res, corpus, tau)

	par := passjoin.WithParallelism(h.clients)
	var setups []float64
	for h.setupAgain(setups) {
		start := time.Now()
		pairs, err := passjoin.SelfJoin(corpus, tau)
		setups = append(setups, time.Since(start).Seconds())
		h.checkPairs(res, "set-up join", pairs, err)
	}
	res.setupTimes(setups)
	pairs, err := passjoin.SelfJoin(corpus, tau, par) // warm the parallel path too
	h.checkPairs(res, "warm-up parallel join", pairs, err)

	var joinUs, parPerS, allocMB []float64
	// Each timed join starts from a collected heap, so none of them pays
	// for the garbage of the join before it.
	res.Rounds = h.timedRounds(func(r int) {
		runtime.GC()
		_, b0 := allocCounters()
		start := time.Now()
		pairs, err := passjoin.SelfJoin(corpus, tau)
		d := time.Since(start)
		_, b1 := allocCounters()
		h.checkPairs(res, "join", pairs, err)
		joinUs = append(joinUs, float64(d)/1e3)
		allocMB = append(allocMB, float64(b1-b0)/(1<<20))

		runtime.GC()
		start = time.Now()
		pairs, err = passjoin.SelfJoin(corpus, tau, par)
		d = time.Since(start)
		h.checkPairs(res, "parallel join", pairs, err)
		parPerS = append(parPerS, 1/d.Seconds())
	})
	res.rounds(mOpP50Us, joinUs)
	res.rounds(mOpsPerS, parPerS)
	res.rounds(mMemMB, allocMB)
	res.Info["join_s"] = res.Metrics[mOpP50Us].Value / 1e6
	res.Info["join_par_s"] = 1 / res.Metrics[mOpsPerS].Value
	return res, nil
}

// traceJoin is the per-layer pass of a join workload: each layer of a
// self join is called on its own from outside, as sibling spans, and the
// public join is timed once untraced and once inside a span.
func (h *harness) traceJoin(name string, rec *recorder) (*wlResult, error) {
	res := newResult(name)
	corpus, tau := h.joinInputs(name)
	n := float64(len(corpus))
	reps := h.sz.RungReps

	// span times the first repetition of a layer call for the span file
	// and returns the best of reps repetitions.
	timeLayer := func(spanName string, fn func()) time.Duration {
		s := rec.now()
		fn()
		rec.add(spanName, s, rec.now(), "trace.round", "")
		return min(time.Duration(rec.spans[len(rec.spans)-1].dur()), bestOf(reps-1, fn))
	}
	roundStart := rec.now()

	var substrings int64
	scan := timeLayer("selection.scan", func() {
		substrings, _ = core.SelectionScan(corpus, tau, selection.MultiMatch)
	})
	res.layer("selection.substrings", float64(substrings))
	res.layer("selection.scan_ns_per_string", float64(scan)/n)

	var idx *index.Index
	build := timeLayer("index.build", func() {
		idx = index.New(tau)
		for id, s := range corpus {
			if len(s) >= tau+1 {
				idx.Add(int32(id), s)
			}
		}
	})
	res.layer("index.build_ns_per_string", float64(build)/n)
	res.layer("index.entries", float64(idx.Entries()))

	var fz *index.Frozen
	freeze := timeLayer("index.freeze", func() { fz = idx.Freeze(corpus) })
	res.layer("index.freeze_ns_per_string", float64(freeze)/n)
	res.layer("index.frozen_bytes_per_string", float64(fz.Bytes())/n)

	var st metrics.Stats
	var corePairs []core.Pair
	var coreErr error
	coreJoin := timeLayer("core.SelfJoin", func() {
		st = metrics.Stats{}
		corePairs, coreErr = core.SelfJoin(corpus, core.Options{Tau: tau, Stats: &st})
	})
	res.check(coreErr == nil, "core.SelfJoin: %v", coreErr)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	res.layer("core.selected_substrings", float64(st.SelectedSubstrings))
	res.layer("core.lookups", float64(st.Lookups))
	res.layer("core.lookup_hit_ratio", ratio(st.LookupHits, st.Lookups))
	res.layer("core.candidates", float64(st.Candidates))
	res.layer("core.unique_candidates", float64(st.UniqueCandidates))
	res.layer("core.verifications", float64(st.Verifications))
	res.layer("core.dp_cells", float64(st.DPCells))
	res.layer("core.early_terms", float64(st.EarlyTerms))
	res.layer("core.shared_rows", float64(st.SharedRows))
	res.layer("core.results", float64(st.Results))
	res.layer("core.candidates_per_result", ratio(st.Candidates, st.Results))
	res.layer("core.dp_cells_per_verification", ratio(st.DPCells, st.Verifications))
	res.layer("core.join_self_s", (coreJoin - scan - build).Seconds())

	a, b := verifyPairSet(corpus, tau, corePairs, h.opts.seed)
	res.Counters["verify_pairs"] = int64(len(a))
	if len(a) > 0 {
		var v verify.Verifier
		var pat verify.Pattern
		sink := 0
		perPair := func(spanName string, dist func(x, y string) int) float64 {
			d := timeLayer(spanName, func() {
				for i := range a {
					sink += dist(a[i], b[i])
				}
			})
			return float64(d) / float64(len(a))
		}
		res.layer("verify.banded_pair_ns", perPair("verify.pairs", func(x, y string) int { return v.Dist(x, y, tau) }))
		res.layer("verify.myers_pair_ns", perPair("verify.pairs.myers", func(x, y string) int { return v.DistMyers(x, y, tau) }))
		res.layer("verify.pattern_pair_ns", perPair("verify.pairs.pattern", func(x, y string) int {
			pat.Set(x)
			return v.DistPattern(&pat, y, tau)
		}))
		res.Counters["verify_sink"] = int64(sink) // sum of capped distances: exact, and keeps the loops alive
	}

	// The public join, untraced and then inside a span: the difference is
	// what the harness's own tracing costs this workload.
	var pairs []passjoin.Pair
	var err error
	untraced := bestOf(reps, func() { pairs, err = passjoin.SelfJoin(corpus, tau) })
	h.checkPairs(res, "join", pairs, err)
	traced := timeLayer("passjoin.SelfJoin", func() { pairs, err = passjoin.SelfJoin(corpus, tau) })
	h.checkPairs(res, "traced join", pairs, err)
	res.layer("trace.overhead_ratio", float64(traced)/float64(untraced))
	rec.add("trace.round", roundStart, rec.now(), "", "")
	res.Rounds = 1
	return res, nil
}

// verifyPairSet builds the verification kernels' input: every result pair
// of the join plus as many length-compatible pairs that are not results,
// so accepted and rejected verifications are equally represented.
func verifyPairSet(corpus []string, tau int, results []core.Pair, seed int64) (a, b []string) {
	isResult := make(map[core.Pair]bool, len(results))
	for _, p := range results {
		isResult[p] = true
		a = append(a, corpus[p.R])
		b = append(b, corpus[p.S])
	}
	rng := newRNG(seed, streamPairs)
	for _, p := range results {
		for try := 0; try < 64; try++ {
			x := int32(rng.IntN(len(corpus)))
			lo, hi := min(p.R, x), max(p.R, x)
			d := len(corpus[p.R]) - len(corpus[x])
			if x == p.R || d > tau || -d > tau || isResult[core.Pair{R: lo, S: hi}] {
				continue
			}
			a = append(a, corpus[p.R])
			b = append(b, corpus[x])
			break
		}
	}
	return a, b
}
