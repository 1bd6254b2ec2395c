package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"passjoin"
	"passjoin/internal/server"
)

// listener is an HTTP server on a loopback port of the kernel's choosing.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

// listen reserves a loopback port; serve starts answering on it. The two
// are separate because a cluster needs every member's URL before any
// member has an index to serve.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serve(ln net.Listener, url string, handler http.Handler) *listener {
	l := &listener{srv: &http.Server{Handler: handler}, url: url, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l
}

// stop shuts the server down and waits for its accept loop to end.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// searchBody is the part of a /v1/search reply the client checks.
type searchBody struct {
	Matches []struct {
		ID   int `json:"id"`
		Dist int `json:"dist"`
	} `json:"matches"`
	Partial bool `json:"partial"`
}

// httpClient is one closed-loop client: its own keep-alive connection and
// reusable read and decode buffers.
type httpClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
	buf  bytes.Buffer
	body searchBody
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &httpClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// search sends one GET and returns the number of matches in the reply.
// Transport errors, any status but 200, undecodable bodies and partial
// answers are errors.
func (hc *httpClient) search(path string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, hc.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.c.Do(req)
	if err != nil {
		return 0, err
	}
	hc.buf.Reset()
	_, err = hc.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.100s", resp.StatusCode, hc.buf.Bytes())
	}
	hc.body.Matches, hc.body.Partial = hc.body.Matches[:0], false
	if err := json.Unmarshal(hc.buf.Bytes(), &hc.body); err != nil {
		return 0, err
	}
	if hc.body.Partial {
		return 0, errors.New("partial response")
	}
	return len(hc.body.Matches), nil
}

// httpClients opens one client per closed-loop goroutine.
func (h *harness) httpClients(base string) []*httpClient {
	out := make([]*httpClient, h.clients)
	for g := range out {
		out[g] = newHTTPClient(base)
	}
	return out
}

func closeClients(cs []*httpClient) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// httpDo adapts the clients to searchRound; lanes, when non-nil, get a
// client.request span per request.
func httpDo(res *wlResult, clients []*httpClient, paths, queries []string, rec *recorder, lanes []*lane) func(g, qi int) int {
	return func(g, qi int) int {
		s := rec.now()
		n, err := clients[g].search(paths[qi])
		if lanes != nil {
			lanes[g].add("client.request", s, rec.now(), "", queries[qi])
		}
		if err != nil {
			res.failure("GET %s: %v", paths[qi], err)
			return -1
		}
		return n
	}
}

// serveConfig is a server configured like passjoind with no flags set.
func serveConfig() server.Config { return server.Config{Logger: daemonLogger()} }

// startServeRead builds what `passjoind corpus.txt` serves — a
// default-shards ShardedSearcher behind server.New — on a loopback
// listener. rec, when non-nil, wraps the index and the handler in spans.
func startServeRead(corpus []string, rec *recorder) (*listener, *passjoin.ShardedSearcher, error) {
	ss, err := passjoin.NewShardedSearcher(corpus, searchTau)
	if err != nil {
		return nil, nil, err
	}
	var idx server.Index = ss
	if rec != nil {
		idx = tracedStatic{ss, rec}
	}
	var handler http.Handler = server.New(idx, nil, serveConfig())
	if rec != nil {
		handler = spanHandler(rec, "server.handler", "client.request", handler)
	}
	ln, url, err := listen()
	if err != nil {
		return nil, nil, err
	}
	return serve(ln, url, handler), ss, nil
}

// runServeRead is the end-to-end pass of serve-read: C keep-alive clients
// of GET /v1/search against an in-process passjoind-equivalent server.
//
//	setup_s    index build, server.New and the listener
//	ops_per_s  completed requests per second at C clients (ISSUE 11: search_qps)
//	op_p50_us  request latency at the client, median       (search_p50_us)
//	mem_mb     live heap the index and server hold         (index_live_mb)
func (h *harness) runServeRead() (*wlResult, error) {
	res := newResult(wlServeRead)
	corpus, queries := h.searchInputs(res)
	paths := searchPaths(queries)
	bufs := h.latencyBuffers(h.sz.ServeOps)

	var l *listener
	var ss *passjoin.ShardedSearcher
	var setups []float64
	var liveMB float64
	for h.setupAgain(setups) {
		if l != nil {
			if err := l.stop(); err != nil {
				return nil, err
			}
			l, ss = nil, nil
		}
		before := liveHeapMB()
		start := time.Now()
		var err error
		if l, ss, err = startServeRead(corpus, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		liveMB = liveHeapMB() - before
	}
	defer func() { l.stop() }()
	res.setupTimes(setups)
	res.Counters["shards"] = int64(ss.NumShards())

	h.checkSearchOracle(res, ss, identityIDs(len(corpus)), corpus, queries, searchTau)
	counts := h.matchCounts(ss, queries)
	res.Counters["query_set_matches"] = sumCounts(counts)

	clients := h.httpClients(l.url)
	defer closeClients(clients)
	h.searchRounds(res, h.sz.ServeOps, counts, bufs, httpDo(res, clients, paths, queries, nil, nil))
	res.set(endToEndSpecs, mMemMB, liveMB)
	return res, nil
}

// handlerPass drives srv.ServeHTTP serially with a ResponseRecorder over
// the given request paths and returns ns, allocations, allocated bytes
// and response bytes per request.
func handlerPass(res *wlResult, reps int, srv http.Handler, paths []string) (ns, allocs, bytesPerOp, respBytes float64) {
	total := 0
	ns, allocs, bytesPerOp = serialPass(reps, paths, func(p string) {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, p, nil))
		if rr.Code != http.StatusOK {
			res.failure("handler %s: status %d", p, rr.Code)
		}
		total += rr.Body.Len()
	})
	return ns, allocs, bytesPerOp, float64(total) / float64(reps*len(paths))
}

// traceServeRead is the per-layer pass of serve-read: the handler rungs
// through ServeHTTP, then one round against a plain server and one against
// a server whose handler and index are wrapped in spans.
func (h *harness) traceServeRead(rec *recorder) (*wlResult, error) {
	res := newResult(wlServeRead)
	corpus, queries := h.searchInputs(res)
	paths := searchPaths(queries)
	rq := min(h.sz.RungQueries, len(queries))
	reps := h.sz.RungReps
	bufs := h.latencyBuffers(h.sz.TraceServeOps)

	plain, ss, err := startServeRead(corpus, nil)
	if err != nil {
		return nil, err
	}
	counts := h.matchCounts(ss, queries)
	searchNs, _, _ := serialPass(reps, queries[:rq], func(q string) { ss.Search(q) })
	srv := server.New(ss, nil, serveConfig())
	ns, allocs, allocBytes, respBytes := handlerPass(res, reps, srv, paths[:rq])
	res.layer("server.handler_ns", ns)
	res.layer("server.handler_self_ns", ns-searchNs)
	res.layer("server.handler_allocs", allocs)
	res.layer("server.handler_alloc_bytes", allocBytes)
	res.layer("server.resp_bytes_per_req", respBytes)
	cfg := serveConfig()
	cfg.SlowQuery = time.Hour // arms per-query phase tracing without ever logging
	tracedNs, _, _, _ := handlerPass(res, reps, server.New(ss, nil, cfg), paths[:rq])
	res.layer("server.traced_handler_ns", tracedNs)
	res.layer("server.trace_overhead_ratio", tracedNs/ns)
	res.ok(2 * reps * rq)

	clients := h.httpClients(plain.url)
	do := httpDo(res, clients, paths, queries, nil, nil)
	h.searchRound(newResult(""), -1, h.sz.TraceServeOps, counts, bufs, do)
	untraced := h.searchRound(res, 0, h.sz.TraceServeOps, counts, bufs, do)
	closeClients(clients)
	if err := plain.stop(); err != nil {
		return nil, err
	}

	wrapped, _, err := startServeRead(corpus, rec)
	if err != nil {
		return nil, err
	}
	defer wrapped.stop()
	clients = h.httpClients(wrapped.url)
	defer closeClients(clients)
	h.searchRound(newResult(""), -1, h.sz.TraceServeOps/4, counts, bufs, httpDo(newResult(""), clients, paths, queries, nil, nil))
	rec.spans = rec.spans[:0] // drop the warm-up's server-side spans
	lanes := rec.lanes(h.clients, h.sz.TraceServeOps)
	traced := h.searchRound(res, 0, h.sz.TraceServeOps, counts, bufs, httpDo(res, clients, paths, queries, rec, lanes))
	flushLanes(lanes)
	clientP50 := p50Us(durations(rec.named("client.request")))
	handlerP50 := p50Us(durations(rec.named("server.handler")))
	res.layer("net.loopback_self_us", clientP50-handlerP50)
	res.layer(mTailP99Us, untraced.p99Us)
	res.layer("trace.overhead_ratio", traced.p50Us/untraced.p50Us)
	res.Info["untraced_p50_us"] = untraced.p50Us
	res.Info["traced_p50_us"] = traced.p50Us
	res.Info["server_handler_span_p50_us"] = handlerP50
	res.Info["index_search_span_p50_us"] = p50Us(durations(rec.named("index.search")))
	res.Rounds = 1
	return res, nil
}
