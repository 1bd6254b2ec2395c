package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"passjoin"
	"passjoin/internal/cluster"
	"passjoin/internal/server"
)

const clusterMembers = 2

// clusterStack is a coordinator over member daemons, all in this process
// on loopback listeners.
type clusterStack struct {
	cl      *cluster.Cluster
	coord   *listener
	members []*listener
	indices []*passjoin.DynamicSearcher
	dirs    []string
	cancel  context.CancelFunc
}

// startCluster builds the topology `passjoind -wal DIR` members behind
// `passjoind -coordinator` would form: each member a durable
// DynamicSearcher with product defaults, seeded by applying every corpus
// document to the member that owns its id and then compacted, and a
// coordinator with its health prober running. rec, when non-nil, wraps
// every index and handler in spans.
func (h *harness) startCluster(corpus []string, rec *recorder) (cs *clusterStack, err error) {
	cs = &clusterStack{}
	defer func() {
		if err != nil {
			cs.stop()
		}
	}()
	lns := make([]net.Listener, clusterMembers)
	urls := make([]string, clusterMembers)
	members := make([]cluster.Member, clusterMembers)
	byName := map[string]*passjoin.DynamicSearcher{}
	for i := range members {
		if lns[i], urls[i], err = listen(); err != nil {
			return cs, err
		}
		members[i] = cluster.Member{Name: fmt.Sprintf("m%d", i), URL: urls[i]}
		dir, err := h.tempDir(members[i].Name)
		if err != nil {
			return cs, err
		}
		cs.dirs = append(cs.dirs, dir)
		ds, err := passjoin.OpenDynamicSearcher(dir, nil, searchTau, passjoin.WithLogger(daemonLogger()))
		if err != nil {
			return cs, err
		}
		cs.indices = append(cs.indices, ds)
		byName[members[i].Name] = ds
	}
	if cs.cl, err = cluster.New(members, cluster.Config{Logger: daemonLogger()}); err != nil {
		return cs, err
	}
	for id, doc := range corpus {
		if _, err = byName[cs.cl.Owner(id).Name].Apply(passjoin.Mutation{ID: id, Doc: doc}); err != nil {
			return cs, err
		}
	}
	for i, ds := range cs.indices {
		if err = ds.Compact(); err != nil {
			return cs, err
		}
		var idx server.Index = ds
		if rec != nil {
			idx = tracedDynamic{ds, rec}
		}
		var handler http.Handler = server.New(idx, nil, serveConfig())
		if rec != nil {
			handler = spanHandler(rec, "member.handler", "coord.handler", handler)
		}
		cs.members = append(cs.members, serve(lns[i], urls[i], handler))
		lns[i] = nil
	}
	var handler http.Handler = server.NewCoordinator(cs.cl, serveConfig())
	if rec != nil {
		handler = spanHandler(rec, "coord.handler", "client.request", handler)
	}
	ln, url, err := listen()
	if err != nil {
		return cs, err
	}
	cs.coord = serve(ln, url, handler)
	ctx, cancel := context.WithCancel(context.Background())
	cs.cancel = cancel
	cs.cl.Start(ctx)
	return cs, nil
}

// stop tears the topology down and removes the members' directories.
func (cs *clusterStack) stop() {
	if cs.cancel != nil {
		cs.cancel()
	}
	if cs.coord != nil {
		cs.coord.stop()
	}
	for _, m := range cs.members {
		m.stop()
	}
	for _, ds := range cs.indices {
		ds.Close()
	}
	for _, dir := range cs.dirs {
		os.RemoveAll(dir)
	}
}

// unionIndex answers a query over the members' indices directly; the
// oracle checks it against brute force, and the coordinator's replies
// against it.
type unionIndex []*passjoin.DynamicSearcher

func (u unionIndex) Search(q string, opts ...passjoin.QueryOption) []passjoin.Match {
	var parts [][]cluster.Hit
	for _, ds := range u {
		var part []cluster.Hit
		for _, m := range ds.Search(q, opts...) {
			part = append(part, cluster.Hit{ID: m.ID, Dist: m.Dist})
		}
		parts = append(parts, part)
	}
	var out []passjoin.Match
	for _, hit := range cluster.MergeHits(parts, 0) {
		out = append(out, passjoin.Match{ID: hit.ID, Dist: hit.Dist})
	}
	return out
}

// runServeCluster is the end-to-end pass of serve-cluster: C keep-alive
// clients of GET /v1/search against the coordinator.
//
//	setup_s    members opened, seeded by Apply and compacted, coordinator up
//	ops_per_s  completed requests per second at C clients (ISSUE 11: search_qps)
//	op_p50_us  request latency at the client, median       (search_p50_us)
//	mem_mb     live heap the members and coordinator hold
func (h *harness) runServeCluster() (*wlResult, error) {
	res := newResult(wlServeCluster)
	corpus, queries := h.searchInputs(res)
	paths := searchPaths(queries)
	bufs := h.latencyBuffers(h.sz.ClusterOps)

	var cs *clusterStack
	var setups []float64
	var liveMB float64
	for h.setupAgain(setups) {
		if cs != nil {
			cs.stop()
			cs = nil
		}
		before := liveHeapMB()
		start := time.Now()
		var err error
		if cs, err = h.startCluster(corpus, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		liveMB = liveHeapMB() - before
	}
	defer func() { cs.stop() }()
	res.setupTimes(setups)
	res.Counters["shards_per_member"] = int64(cs.indices[0].NumShards())

	union := unionIndex(cs.indices)
	h.checkSearchOracle(res, union, identityIDs(len(corpus)), corpus, queries, searchTau)
	counts := h.matchCounts(union, queries)
	res.Counters["query_set_matches"] = sumCounts(counts)

	clients := h.httpClients(cs.coord.url)
	defer closeClients(clients)
	h.searchRounds(res, h.sz.ClusterOps, counts, bufs, httpDo(res, clients, paths, queries, nil, nil))
	res.set(endToEndSpecs, mMemMB, liveMB)
	return res, nil
}

// memberCalls sums the coordinator's per-member request counters: all
// calls for the search route, and those that did not answer 200.
func memberCalls(cl *cluster.Cluster) (calls, errs int64) {
	for k, n := range cl.RequestCounts() {
		if k.Route != "/v1/search" {
			continue
		}
		calls += n
		if k.Code != "200" {
			errs += n
		}
	}
	return calls, errs
}

// traceServeCluster is the per-layer pass of serve-cluster: the merge
// rung, one round against a plain topology, and one against a topology
// whose coordinator, member handlers and member indices are wrapped in
// spans (client.request -> coord.handler -> member.handler x2 ->
// index.search).
func (h *harness) traceServeCluster(rec *recorder) (*wlResult, error) {
	res := newResult(wlServeCluster)
	corpus, queries := h.searchInputs(res)
	paths := searchPaths(queries)
	bufs := h.latencyBuffers(h.sz.TraceClusterOps)

	plain, err := h.startCluster(corpus, nil)
	if err != nil {
		return nil, err
	}
	counts := h.matchCounts(unionIndex(plain.indices), queries)

	// cluster.merge_ns: MergeHits over the hit lists the members really
	// return, fetched from each member directly.
	rq := min(h.sz.RungQueries/4, len(queries))
	parts := make([][][]cluster.Hit, rq)
	mc := newHTTPClient("")
	for i := 0; i < rq; i++ {
		for _, m := range plain.members {
			mc.base = m.url
			if _, err := mc.search(paths[i]); err != nil {
				res.fail("member GET %s: %v", paths[i], err)
			}
			var body struct{ Matches []cluster.Hit }
			if err := json.Unmarshal(mc.buf.Bytes(), &body); err != nil {
				res.fail("member reply to %s: %v", paths[i], err)
			}
			parts[i] = append(parts[i], body.Matches)
		}
	}
	mc.tr.CloseIdleConnections()
	merge := bestOf(h.sz.RungReps, func() {
		for _, p := range parts {
			cluster.MergeHits(p, 0)
		}
	})
	res.layer("cluster.merge_ns", float64(merge)/float64(rq))
	res.ok(rq * clusterMembers)

	clients := h.httpClients(plain.coord.url)
	do := httpDo(res, clients, paths, queries, nil, nil)
	h.searchRound(newResult(""), -1, h.sz.TraceClusterOps, counts, bufs, do)
	untraced := h.searchRound(res, 0, h.sz.TraceClusterOps, counts, bufs, do)
	closeClients(clients)
	plain.stop()

	wrapped, err := h.startCluster(corpus, rec)
	if err != nil {
		return nil, err
	}
	defer wrapped.stop()
	clients = h.httpClients(wrapped.coord.url)
	defer closeClients(clients)
	h.searchRound(newResult(""), -1, h.sz.TraceClusterOps/4, counts, bufs, httpDo(newResult(""), clients, paths, queries, nil, nil))
	rec.spans = rec.spans[:0] // drop the warm-up's server-side spans
	lanes := rec.lanes(h.clients, h.sz.TraceClusterOps)
	calls0, errs0 := memberCalls(wrapped.cl)
	traced := h.searchRound(res, 0, h.sz.TraceClusterOps, counts, bufs, httpDo(res, clients, paths, queries, rec, lanes))
	calls1, errs1 := memberCalls(wrapped.cl)
	flushLanes(lanes)

	memberSpans := byReq(rec.named("member.handler"))
	var coordDur, slowest, coordSelf []int64
	for _, c := range rec.named("coord.handler") {
		ms := memberSpans[c.Req]
		if len(ms) == 0 {
			continue
		}
		coordDur = append(coordDur, c.dur())
		worst := int64(0)
		for _, m := range ms {
			worst = max(worst, m.dur())
		}
		slowest = append(slowest, worst)
		coordSelf = append(coordSelf, selfTime(c, ms))
	}
	res.layer("cluster.coord_span_us_p50", p50Us(coordDur))
	res.layer("cluster.member_span_us_p50", p50Us(durations(rec.named("member.handler"))))
	res.layer("cluster.slowest_member_us_p50", p50Us(slowest))
	res.layer("cluster.coord_self_us_p50", p50Us(coordSelf))
	res.layer("cluster.member_calls_per_query", float64(calls1-calls0)/float64(h.sz.TraceClusterOps*h.clients))
	res.layer("cluster.member_errors", float64(errs1-errs0))
	res.layer(mTailP99Us, untraced.p99Us)
	res.layer("trace.overhead_ratio", traced.p50Us/untraced.p50Us)
	res.Info["untraced_p50_us"] = untraced.p50Us
	res.Info["traced_p50_us"] = traced.p50Us
	res.Info["client_request_span_p50_us"] = p50Us(durations(rec.named("client.request")))
	res.Info["index_search_span_p50_us"] = p50Us(durations(rec.named("index.search")))
	res.Rounds = 1
	return res, nil
}
