package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passjoin/internal/cluster"
	"passjoin/internal/obs"
)

// Coordinator is the cluster-tier front door: it owns no index, only a
// cluster.Cluster over the member daemons, and serves the same HTTP API
// a single passjoind does by routing writes to the rendezvous owner of
// each document id and fanning reads over every member with bounded
// scatter-gather.
//
// The serving contract is byte-identity: a /v1/search, /v1/topk or
// /v1/batch response from a healthy coordinator is byte-for-byte the
// response a single-node daemon would give over the union of the member
// corpora (same (dist, id) order, same JSON shape; documents transiently
// present on two members mid-rebalance are deduplicated keeping the
// smaller distance). Degradation is explicit, never silent: a query that
// loses a member answers 206 with "partial": true and the missing member
// names; a join stream that loses a member appends a terminal
// {"partial": true, "missing": [...]} NDJSON record.
//
// Routes beyond the single-node set:
//
//	POST /v1/cluster/rebalance   move documents to their ring owners
//
// It implements http.Handler.
type Coordinator struct {
	cl     *cluster.Cluster
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	logger *slog.Logger
	obsv   *coordObs
	build  buildInfo

	// The global id allocator. Members assign ids independently when used
	// standalone, so before the first routed write the coordinator folds
	// in every member's next_id floor — writes answer 503 until every
	// member has contributed (an unreachable member could own ids the
	// coordinator would otherwise re-issue).
	idMu    sync.Mutex
	nextID  int
	idReady bool
	seeded  map[string]bool

	queries  atomic.Int64 // lookups answered across search/batch/topk
	inserts  atomic.Int64 // documents routed via POST /v1/docs
	deletes  atomic.Int64 // documents deleted via DELETE /v1/docs/{id}
	partials atomic.Int64 // passjoin_cluster_partial_responses_total
	rr       atomic.Int64 // round-robin cursor for proxied streams
}

// NewCoordinator builds a coordinator over cl. The Config bounds are the
// same as a member server's (body caps, default k, logger); the
// index-specific knobs (SlowQuery, Replica, ReplStatus) are ignored.
func NewCoordinator(cl *cluster.Cluster, cfg Config) *Coordinator {
	co := &Coordinator{
		cl:     cl,
		cfg:    cfg.withDefaults(),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		seeded: map[string]bool{},
	}
	co.logger = co.cfg.Logger
	if co.logger == nil {
		co.logger = slog.New(slog.DiscardHandler)
	}
	co.build = readBuildInfo()
	co.obsv = newCoordObs(co)
	handle := func(method, path string, h http.HandlerFunc) {
		co.mux.Handle(method+" "+path, co.obsv.instrument(path, h))
	}
	handle("GET", "/healthz", co.handleHealth)
	handle("GET", "/v1/search", co.handleSearch)
	handle("POST", "/v1/search", co.handleSearch)
	handle("POST", "/v1/batch", co.handleBatch)
	handle("GET", "/v1/topk", co.handleTopK)
	handle("POST", "/v1/dedup", co.handleDedup)
	handle("POST", "/v1/join/self", co.handleJoinSelf)
	handle("POST", "/v1/join", co.handleJoinRS)
	handle("GET", "/v1/stats", co.handleStats)
	handle("GET", "/metrics", co.handleMetrics)
	handle("POST", "/v1/docs", co.handleInsert)
	handle("GET", "/v1/docs/{id}", co.handleGetDoc)
	handle("DELETE", "/v1/docs/{id}", co.handleDeleteDoc)
	handle("POST", "/v1/cluster/rebalance", co.handleRebalance)
	allow := map[string]string{
		"/healthz":              "GET",
		"/v1/search":            "GET, POST",
		"/v1/batch":             "POST",
		"/v1/topk":              "GET",
		"/v1/dedup":             "POST",
		"/v1/join/self":         "POST",
		"/v1/join":              "POST",
		"/v1/stats":             "GET",
		"/metrics":              "GET",
		"/v1/docs":              "POST",
		"/v1/docs/{id}":         "GET, DELETE",
		"/v1/cluster/rebalance": "POST",
	}
	for path, methods := range allow {
		co.mux.Handle(path, co.obsv.instrument(path, methodNotAllowed(methods)))
	}
	return co
}

func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.mux.ServeHTTP(w, r)
}

// Metrics returns the coordinator's metric registry for tests and
// embedders.
func (co *Coordinator) Metrics() http.Handler { return co.obsv.reg.Handler() }

// InvalidateIDFloor forces the next routed write to re-bootstrap the
// global id allocator from any members it has not seen yet — call it
// after a membership reload, since a newly added member may own ids the
// allocator has never folded in.
func (co *Coordinator) InvalidateIDFloor() {
	co.idMu.Lock()
	co.idReady = false
	co.idMu.Unlock()
}

// coordObs wires the cluster-tier metric families: the shared per-route
// HTTP middleware plus member health, per-member request outcomes and
// the partial-response counter, all sampled at scrape time from state
// the coordinator and cluster already own.
type coordObs struct {
	reg *obs.Registry
	*httpObs
}

func newCoordObs(co *Coordinator) *coordObs {
	r := obs.NewRegistry()
	o := &coordObs{reg: r, httpObs: newHTTPObs(r, co.logger)}
	r.Collect("passjoin_cluster_member_up",
		"Per-member health: 1 when the member's circuit breaker is closed.",
		"gauge", []string{"member"},
		func(emit func([]string, float64)) {
			for _, m := range co.cl.Members() {
				v := 0.0
				if m.Up {
					v = 1
				}
				emit([]string{m.Name}, v)
			}
		})
	r.Collect("passjoin_cluster_requests_total",
		"Member requests issued by the coordinator, by member, route and outcome.",
		"counter", []string{"member", "route", "code"},
		func(emit func([]string, float64)) {
			for k, n := range co.cl.RequestCounts() {
				emit([]string{k.Member, k.Route, k.Code}, float64(n))
			}
		})
	r.CounterFunc("passjoin_cluster_partial_responses_total",
		"Responses degraded to partial because one or more members were unreachable.",
		func() float64 { return float64(co.partials.Load()) })
	r.CounterFunc("passjoin_queries_total",
		"Lookups answered across /v1/search, /v1/batch and /v1/topk.",
		func() float64 { return float64(co.queries.Load()) })
	r.CounterFunc("passjoin_inserts_total",
		"Documents routed to their owners via POST /v1/docs.",
		func() float64 { return float64(co.inserts.Load()) })
	r.CounterFunc("passjoin_deletes_total",
		"Documents deleted cluster-wide via DELETE /v1/docs/{id}.",
		func() float64 { return float64(co.deletes.Load()) })
	r.GaugeFunc("passjoin_uptime_seconds", "Seconds since the coordinator started.",
		func() float64 { return time.Since(co.start).Seconds() })
	r.Collect("passjoin_build_info",
		"Build metadata; value is always 1.",
		"gauge", []string{"go_version", "revision"},
		func(emit func([]string, float64)) {
			emit([]string{co.build.goVersion, co.build.revision}, 1)
		})
	obs.RegisterRuntime(r)
	return o
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	co.obsv.reg.Handler().ServeHTTP(w, r)
}

func (co *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	members := co.cl.Members()
	healthy := 0
	for _, m := range members {
		if m.Up {
			healthy++
		}
	}
	status := "ok"
	if healthy < len(members) {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"mode":    "coordinator",
		"members": members,
		"healthy": healthy,
	})
}

// ClusterStats is the cluster section of the coordinator's /v1/stats.
type ClusterStats struct {
	Members []cluster.Info `json:"members"`
	Healthy int            `json:"healthy"`
	// NextID is the coordinator's global id allocator watermark; 0 until
	// the first routed write bootstraps it from the members.
	NextID int `json:"next_id"`
	// PartialResponses counts responses degraded to partial because a
	// member was unreachable.
	PartialResponses int64 `json:"partial_responses"`
}

// CoordStatsResponse is the coordinator's /v1/stats reply.
type CoordStatsResponse struct {
	Mode          string       `json:"mode"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Queries       int64        `json:"queries"`
	Inserts       int64        `json:"inserts"`
	Deletes       int64        `json:"deletes"`
	Cluster       ClusterStats `json:"cluster"`
	GoVersion     string       `json:"go_version"`
	Revision      string       `json:"revision"`
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	members := co.cl.Members()
	healthy := 0
	for _, m := range members {
		if m.Up {
			healthy++
		}
	}
	co.idMu.Lock()
	nextID := co.nextID
	co.idMu.Unlock()
	writeJSON(w, http.StatusOK, CoordStatsResponse{
		Mode:          "coordinator",
		UptimeSeconds: time.Since(co.start).Seconds(),
		Queries:       co.queries.Load(),
		Inserts:       co.inserts.Load(),
		Deletes:       co.deletes.Load(),
		Cluster: ClusterStats{
			Members:          members,
			Healthy:          healthy,
			NextID:           nextID,
			PartialResponses: co.partials.Load(),
		},
		GoVersion: co.build.goVersion,
		Revision:  co.build.revision,
	})
}

// --- Scatter reads -------------------------------------------------------

// coordSearchResponse is the coordinator's /v1/search and /v1/topk reply.
// Field names and order match SearchResponse exactly, and the partial
// markers only appear on degraded (206) responses, so a full response is
// byte-identical to a single-node daemon's.
type coordSearchResponse struct {
	Query   string        `json:"query"`
	Matches []cluster.Hit `json:"matches"`
	Partial bool          `json:"partial,omitempty"`
	Missing []string      `json:"missing,omitempty"`
}

// coordBatchResponse mirrors BatchResponse the same way.
type coordBatchResponse struct {
	Results [][]cluster.Hit `json:"results"`
	Partial bool            `json:"partial,omitempty"`
	Missing []string        `json:"missing,omitempty"`
}

// memberSearchBody is the slice of a member search response the merge
// needs.
type memberSearchBody struct {
	Matches []cluster.Hit `json:"matches"`
}

// scatterCall fans one buffered request over every member (down members
// fail fast on their open breakers and land in missing). It returns the
// per-member successes, the missing member names, and — when a member
// answered a client error — that response to relay verbatim.
func (co *Coordinator) scatterCall(ctx context.Context, o cluster.CallOpts) (oks []cluster.Result1[cluster.Result], missing []string, clientErr *cluster.Result) {
	members := co.cl.Members()
	results := cluster.Scatter(ctx, members, func(ctx context.Context, m cluster.Info) (cluster.Result, error) {
		return co.cl.Call(ctx, m.Name, o)
	})
	for _, r := range results {
		switch {
		case r.Err != nil:
			missing = append(missing, r.Member.Name)
		case r.Value.Status >= 500:
			missing = append(missing, r.Member.Name)
		case r.Value.Status >= 400:
			if clientErr == nil {
				v := r.Value
				clientErr = &v
			}
		default:
			oks = append(oks, r)
		}
	}
	return oks, missing, clientErr
}

// relay copies a member response to the client verbatim.
func relay(w http.ResponseWriter, res cluster.Result) {
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

// partialStatus finalizes a scatter read: 200 when every member
// answered, 206 (and the partial counter) when some were missing, and a
// 503 error when none were reachable. The boolean reports whether the
// caller should write its merged payload.
func (co *Coordinator) partialStatus(w http.ResponseWriter, reached, missing int) (int, bool) {
	if reached == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members reachable")
		return 0, false
	}
	if missing > 0 {
		co.partials.Add(1)
		return http.StatusPartialContent, true
	}
	return http.StatusOK, true
}

func (co *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	var q string
	var k int
	var body []byte
	path := "/v1/search"
	contentType := ""
	if r.Method == http.MethodGet {
		params := r.URL.Query()
		q = params.Get("q")
		k, _ = strconv.Atoi(params.Get("k"))
		if raw := r.URL.RawQuery; raw != "" {
			path += "?" + raw
		}
	} else {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes))
		if err != nil {
			writeError(w, scanErrStatus(err), "reading body: "+err.Error())
			return
		}
		// Lenient decode for the echo and merge parameters; members
		// enforce the strict contract and their 400s relay verbatim.
		var req searchRequest
		if json.Unmarshal(body, &req) == nil {
			q, k = req.Query, req.K
		}
		contentType = "application/json"
		if raw := r.URL.RawQuery; raw != "" {
			path += "?" + raw
		}
	}
	co.scatterSearch(w, r, cluster.CallOpts{
		Route: "/v1/search", Method: r.Method, Path: path,
		Body: body, ContentType: contentType, Retry: true,
	}, q, k)
}

func (co *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	k := co.cfg.DefaultTopK
	if raw := params.Get("k"); raw != "" {
		if v, err := strconv.Atoi(raw); err == nil {
			k = v
		}
	}
	path := "/v1/topk"
	if raw := r.URL.RawQuery; raw != "" {
		path += "?" + raw
	}
	co.scatterSearch(w, r, cluster.CallOpts{
		Route: "/v1/topk", Method: http.MethodGet, Path: path, Retry: true,
	}, q, k)
}

// scatterSearch fans one search-shaped request over the members and
// merges the (dist, id)-ordered per-member lists into the single-node
// answer.
func (co *Coordinator) scatterSearch(w http.ResponseWriter, r *http.Request, o cluster.CallOpts, q string, k int) {
	oks, missing, clientErr := co.scatterCall(r.Context(), o)
	if clientErr != nil {
		relay(w, *clientErr)
		return
	}
	status, ok := co.partialStatus(w, len(oks), len(missing))
	if !ok {
		return
	}
	parts := make([][]cluster.Hit, 0, len(oks))
	for _, res := range oks {
		var mb memberSearchBody
		if err := json.Unmarshal(res.Value.Body, &mb); err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("member %s answered malformed JSON: %v", res.Member.Name, err))
			return
		}
		parts = append(parts, mb.Matches)
	}
	co.queries.Add(1)
	writeJSON(w, status, coordSearchResponse{
		Query:   q,
		Matches: cluster.MergeHits(parts, k),
		Partial: len(missing) > 0,
		Missing: missing,
	})
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, scanErrStatus(err), "reading body: "+err.Error())
		return
	}
	var req BatchRequest
	if json.Unmarshal(body, &req) == nil && len(req.Queries) > co.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), co.cfg.MaxBatch))
		return
	}
	path := "/v1/batch"
	if raw := r.URL.RawQuery; raw != "" {
		path += "?" + raw
	}
	oks, missing, clientErr := co.scatterCall(r.Context(), cluster.CallOpts{
		Route: "/v1/batch", Method: http.MethodPost, Path: path,
		Body: body, ContentType: "application/json", Retry: true,
	})
	if clientErr != nil {
		relay(w, *clientErr)
		return
	}
	status, ok := co.partialStatus(w, len(oks), len(missing))
	if !ok {
		return
	}
	// Column-wise merge: Results[i] of every member answers Queries[i].
	perMember := make([][][]cluster.Hit, 0, len(oks))
	for _, res := range oks {
		var mb struct {
			Results [][]cluster.Hit `json:"results"`
		}
		if err := json.Unmarshal(res.Value.Body, &mb); err != nil || len(mb.Results) != len(req.Queries) {
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("member %s answered a malformed batch response", res.Member.Name))
			return
		}
		perMember = append(perMember, mb.Results)
	}
	merged := make([][]cluster.Hit, len(req.Queries))
	column := make([][]cluster.Hit, len(perMember))
	for i := range merged {
		for m := range perMember {
			column[m] = perMember[m][i]
		}
		merged[i] = cluster.MergeHits(column, req.K)
	}
	co.queries.Add(int64(len(req.Queries)))
	writeJSON(w, status, coordBatchResponse{
		Results: merged,
		Partial: len(missing) > 0,
		Missing: missing,
	})
}

// --- Routed writes -------------------------------------------------------

// ensureIDFloor folds every member's id-space upper bound into the
// global allocator, once. Every member must contribute before the first
// write: an unreachable member may own ids the coordinator would
// otherwise re-issue.
func (co *Coordinator) ensureIDFloor(ctx context.Context) error {
	co.idMu.Lock()
	defer co.idMu.Unlock()
	if co.idReady {
		return nil
	}
	for _, m := range co.cl.Members() {
		if co.seeded[m.Name] {
			continue
		}
		res, err := co.cl.Call(ctx, m.Name, cluster.CallOpts{
			Route: "/v1/stats", Method: http.MethodGet, Path: "/v1/stats", Retry: true,
		})
		if err != nil || res.Status != http.StatusOK {
			return fmt.Errorf("id space not bootstrapped: member %s unreachable", m.Name)
		}
		var st struct {
			Strings int `json:"strings"`
			NextID  int `json:"next_id"`
		}
		if err := json.Unmarshal(res.Body, &st); err != nil {
			return fmt.Errorf("id space not bootstrapped: member %s answered malformed stats", m.Name)
		}
		floor := max(st.NextID, st.Strings)
		if floor > co.nextID {
			co.nextID = floor
		}
		co.seeded[m.Name] = true
	}
	co.idReady = true
	return nil
}

func (co *Coordinator) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req DocRequest
	if !decodeJSON(w, r, co.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.Doc == nil {
		writeError(w, http.StatusBadRequest, "missing doc field")
		return
	}
	if err := co.ensureIDFloor(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	var id int
	if req.ID != nil {
		if *req.ID < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid document id %d", *req.ID))
			return
		}
		id = *req.ID
		co.idMu.Lock()
		if id >= co.nextID {
			co.nextID = id + 1
		}
		co.idMu.Unlock()
	} else {
		co.idMu.Lock()
		id = co.nextID
		co.nextID++
		co.idMu.Unlock()
	}
	owner := co.cl.Owner(id)
	body, _ := json.Marshal(DocRequest{ID: &id, Doc: req.Doc})
	res, err := co.cl.Call(r.Context(), owner.Name, cluster.CallOpts{
		Route: "/v1/docs", Method: http.MethodPost, Path: "/v1/docs",
		Body: body, ContentType: "application/json", Retry: true,
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("owner %s of document %d is unreachable: %v", owner.Name, id, err))
		return
	}
	if res.Status == http.StatusCreated {
		co.inserts.Add(1)
	}
	relay(w, res)
}

func (co *Coordinator) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	path := "/v1/docs/" + strconv.Itoa(id)
	opts := cluster.CallOpts{Route: "/v1/docs/{id}", Method: http.MethodGet, Path: path, Retry: true}
	owner := co.cl.Owner(id)
	res, err := co.cl.Call(r.Context(), owner.Name, opts)
	if err == nil && res.Status == http.StatusOK {
		relay(w, res)
		return
	}
	// Owner miss: mid-rebalance the document may still live elsewhere, so
	// fall back to a full scatter before answering 404.
	var missing []string
	if err != nil {
		missing = append(missing, owner.Name)
	}
	for _, m := range co.cl.Members() {
		if m.Name == owner.Name {
			continue
		}
		res, err := co.cl.Call(r.Context(), m.Name, opts)
		if err != nil {
			missing = append(missing, m.Name)
			continue
		}
		if res.Status == http.StatusOK {
			relay(w, res)
			return
		}
	}
	if len(missing) > 0 {
		co.partials.Add(1)
		writeJSON(w, http.StatusPartialContent, map[string]any{
			"error":   fmt.Sprintf("no live document with id %d on reachable members", id),
			"partial": true,
			"missing": missing,
		})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("no live document with id %d", id))
}

// handleDeleteDoc deletes everywhere, not just on the ring owner: a
// rebalance in flight may have the document on two members, and a stale
// copy left behind would resurrect hits.
func (co *Coordinator) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	path := "/v1/docs/" + strconv.Itoa(id)
	results := cluster.Scatter(r.Context(), co.cl.Members(),
		func(ctx context.Context, m cluster.Info) (cluster.Result, error) {
			return co.cl.Call(ctx, m.Name, cluster.CallOpts{
				Route: "/v1/docs/{id}", Method: http.MethodDelete, Path: path, Retry: true,
			})
		})
	deleted := false
	var missing []string
	for _, res := range results {
		switch {
		case res.Err != nil || res.Value.Status >= 500:
			missing = append(missing, res.Member.Name)
		case res.Value.Status == http.StatusOK:
			deleted = true
		}
	}
	if deleted {
		co.deletes.Add(1)
	}
	switch {
	case len(missing) > 0:
		// The delete may be incomplete on the missing members; say so
		// rather than claiming success.
		co.partials.Add(1)
		writeJSON(w, http.StatusPartialContent, map[string]any{
			"id":      id,
			"deleted": deleted,
			"partial": true,
			"missing": missing,
		})
	case deleted:
		writeJSON(w, http.StatusOK, DocResponse{ID: id, Deleted: true})
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no live document with id %d", id))
	}
}

// --- Streaming proxies and distributed joins -----------------------------

// pickHealthy returns round-robin healthy members, most preferred first.
func (co *Coordinator) pickHealthy() []cluster.Info {
	healthy := co.cl.Healthy()
	if len(healthy) == 0 {
		return nil
	}
	start := int(co.rr.Add(1)-1) % len(healthy)
	out := make([]cluster.Info, 0, len(healthy))
	out = append(out, healthy[start:]...)
	out = append(out, healthy[:start]...)
	return out
}

// relayStream proxies one streaming member response to the client,
// flushing as data arrives. It reports bytes relayed and the copy error,
// if any.
func relayStream(w http.ResponseWriter, resp *http.Response) (int64, error) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	var total int64
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			wn, werr := w.Write(buf[:n])
			total += int64(wn)
			if flusher != nil {
				flusher.Flush()
			}
			if werr != nil {
				return total, nil // client went away; nothing left to report
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// proxyStream round-robins one streaming request over the healthy
// members, failing over to the next while nothing has been relayed yet.
// A member that dies mid-stream leaves the response truncated; the
// caller owns the terminal-record contract.
func (co *Coordinator) proxyStream(w http.ResponseWriter, r *http.Request, o cluster.CallOpts) {
	candidates := co.pickHealthy()
	if len(candidates) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members reachable")
		return
	}
	for i, m := range candidates {
		resp, err := co.cl.Stream(r.Context(), m.Name, o)
		if err != nil {
			if i == len(candidates)-1 {
				writeError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("no cluster member could serve the stream: %v", err))
				return
			}
			continue
		}
		_, copyErr := relayStream(w, resp)
		resp.Body.Close()
		if copyErr != nil {
			// Member died mid-stream. The status line is long gone, so
			// degrade explicitly with a terminal partial record.
			co.partials.Add(1)
			enc := json.NewEncoder(w)
			_ = enc.Encode(map[string]any{"partial": true, "missing": []string{m.Name}})
		}
		return
	}
}

func (co *Coordinator) handleDedup(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, scanErrStatus(err), "reading body: "+err.Error())
		return
	}
	path := "/v1/dedup"
	if raw := r.URL.RawQuery; raw != "" {
		path += "?" + raw
	}
	co.proxyStream(w, r, cluster.CallOpts{
		Route: "/v1/dedup", Method: http.MethodPost, Path: path,
		Body: body, ContentType: "text/plain", Retry: false,
	})
}

func (co *Coordinator) handleJoinSelf(w http.ResponseWriter, r *http.Request) {
	co.handleJoin(w, r, true)
}
func (co *Coordinator) handleJoinRS(w http.ResponseWriter, r *http.Request) {
	co.handleJoin(w, r, false)
}

// joinTask is one unit of a distributed join: a corpus upload for one
// member plus the offsets that map its local pair indices back to global
// line numbers.
type joinTask struct {
	path    string // member route with query string
	body    []byte
	offR    int
	offS    int
	selfOff bool // self task: both indices offset by offR
}

// handleJoin serves the bulk joins cluster-wide. The corpus is uploaded
// to the coordinator, split into one contiguous chunk per healthy
// member, and joined as chunk-local tasks: every chunk self-joins, and
// every chunk pair (i < j) cross-joins, so each global pair is produced
// by exactly one task and r < s is preserved by construction. Tasks are
// stateless — any member can run any task — so a task whose member dies
// before emitting anything retries on a different member; a task that
// dies mid-emission is reported in the terminal partial record instead
// (a retry could duplicate pairs already streamed).
//
// Corpora with empty lines fall back to a single-member proxy: a blank
// line inside a chunk would corrupt the two-section R×S task encoding.
func (co *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request, self bool) {
	rset, sset, hasBlank, ok := readJoinBody(w, r, co.cfg.MaxJoinBytes, self)
	if !ok {
		return
	}
	healthy := co.pickHealthy()
	if len(healthy) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no cluster members reachable")
		return
	}
	route := "/v1/join/self"
	if !self {
		route = "/v1/join"
	}
	query := ""
	if raw := r.URL.RawQuery; raw != "" {
		query = "?" + raw
	}
	// Blank-line corpora (or a single healthy member) cannot be chunked;
	// proxy the whole join to one member, whose response needs no
	// remapping.
	if hasBlank || len(healthy) == 1 {
		var full []byte
		if self {
			full = joinBody(rset)
		} else {
			full = rsBody(rset, sset)
		}
		co.proxyStream(w, r, cluster.CallOpts{
			Route: route, Method: http.MethodPost, Path: route + query,
			Body: full, ContentType: "text/plain",
		})
		return
	}

	// Chunk the R section over the healthy members; for R×S joins the S
	// section replicates into every task.
	chunks, offs := chunkLines(rset, len(healthy))
	var tasks []joinTask
	if self {
		for i, c := range chunks {
			if len(c) == 0 {
				continue
			}
			tasks = append(tasks, joinTask{
				path: "/v1/join/self" + query, body: joinBody(c),
				offR: offs[i], selfOff: true,
			})
			for j := i + 1; j < len(chunks); j++ {
				if len(chunks[j]) == 0 {
					continue
				}
				tasks = append(tasks, joinTask{
					path: "/v1/join" + query, body: rsBody(c, chunks[j]),
					offR: offs[i], offS: offs[j],
				})
			}
		}
	} else {
		for i, c := range chunks {
			if len(c) == 0 {
				continue
			}
			tasks = append(tasks, joinTask{
				path: "/v1/join" + query, body: rsBody(c, sset),
				offR: offs[i],
			})
		}
	}
	co.runJoinTasks(w, r, route, healthy, tasks)
}

// runJoinTasks executes the distributed join: tasks spread round-robin
// over the members, two in flight per healthy member, pair records
// remapped to global line numbers and streamed to the client as they
// arrive.
func (co *Coordinator) runJoinTasks(w http.ResponseWriter, r *http.Request, route string, healthy []cluster.Info, tasks []joinTask) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var outMu sync.Mutex // guards w/enc and the shared failure state
	enc := json.NewEncoder(w)
	written := 0
	clientGone := false
	missingSet := map[string]bool{}

	sem := make(chan struct{}, 2*len(healthy))
	var wg sync.WaitGroup
	for ti, t := range tasks {
		wg.Add(1)
		go func(ti int, t joinTask) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Candidate members for this task: round-robin by task index,
			// one failover while nothing has been emitted.
			emitted := false
			for attempt := 0; attempt < len(healthy); attempt++ {
				m := healthy[(ti+attempt)%len(healthy)]
				resp, err := co.cl.Stream(r.Context(), m.Name, cluster.CallOpts{
					Route: route, Method: http.MethodPost, Path: t.path,
					Body: t.body, ContentType: "text/plain",
				})
				if err != nil {
					continue // nothing emitted; next candidate
				}
				readErr := func() error {
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 64*1024), 4<<20)
					for sc.Scan() {
						raw := sc.Bytes()
						if len(raw) == 0 {
							continue
						}
						var p JoinPair
						if err := json.Unmarshal(raw, &p); err != nil {
							return fmt.Errorf("malformed pair record: %w", err)
						}
						p.R += t.offR
						if t.selfOff {
							p.S += t.offR
						} else {
							p.S += t.offS
						}
						outMu.Lock()
						if clientGone {
							outMu.Unlock()
							return nil
						}
						if err := enc.Encode(p); err != nil {
							clientGone = true
							outMu.Unlock()
							return nil
						}
						written++
						if flusher != nil && written%joinFlushEvery == 1 {
							flusher.Flush()
						}
						outMu.Unlock()
						emitted = true
					}
					return sc.Err()
				}()
				resp.Body.Close()
				if readErr == nil {
					return // task complete
				}
				if emitted {
					// Mid-stream death after emission: retrying would
					// duplicate pairs. Degrade explicitly.
					outMu.Lock()
					missingSet[m.Name] = true
					outMu.Unlock()
					return
				}
				// Nothing emitted; the loop tries the next candidate.
			}
			outMu.Lock()
			missingSet[strings.Join(memberNames(healthy), ",")] = true
			outMu.Unlock()
		}(ti, t)
	}
	wg.Wait()
	outMu.Lock()
	defer outMu.Unlock()
	if clientGone {
		return
	}
	if len(missingSet) > 0 {
		co.partials.Add(1)
		missing := make([]string, 0, len(missingSet))
		for name := range missingSet {
			missing = append(missing, name)
		}
		sort.Strings(missing)
		_ = enc.Encode(map[string]any{"partial": true, "missing": missing})
	}
	if flusher != nil {
		flusher.Flush()
	}
}

func memberNames(ms []cluster.Info) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// chunkLines splits lines into n contiguous chunks (the first len%n
// chunks one longer) and returns each chunk's global offset.
func chunkLines(lines []string, n int) ([][]string, []int) {
	chunks := make([][]string, n)
	offs := make([]int, n)
	base := len(lines) / n
	extra := len(lines) % n
	at := 0
	for i := range chunks {
		size := base
		if i < extra {
			size++
		}
		offs[i] = at
		chunks[i] = lines[at : at+size]
		at += size
	}
	return chunks, offs
}

// joinBody encodes one line section as an upload body.
func joinBody(lines []string) []byte {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// rsBody encodes two line sections with the blank-line separator.
func rsBody(rset, sset []string) []byte {
	var b strings.Builder
	for _, l := range rset {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	for _, l := range sset {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// --- Rebalance -----------------------------------------------------------

// RebalanceResponse reports one manual rebalance pass.
type RebalanceResponse struct {
	Scanned int `json:"scanned"`
	Moved   int `json:"moved"`
}

// handleRebalance moves every document to its ring owner: each member's
// corpus is enumerated, and a document whose owner is another member is
// inserted there first and deleted from the source after — the transient
// double-presence is what the merge dedup is for, and a crash between
// the two steps leaves a duplicate, never a loss. Requires every member
// healthy: moving documents while a member is unreachable could strand
// copies.
func (co *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) {
	members := co.cl.Members()
	for _, m := range members {
		if !m.Up {
			writeError(w, http.StatusConflict,
				fmt.Sprintf("rebalance requires every member healthy; %s is down", m.Name))
			return
		}
	}
	var resp RebalanceResponse
	for _, m := range members {
		stream, err := co.cl.Stream(r.Context(), m.Name, cluster.CallOpts{
			Route: "/v1/docs", Method: http.MethodGet, Path: "/v1/docs", Retry: true,
		})
		if err != nil {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("listing %s failed: %v", m.Name, err))
			return
		}
		type move struct {
			id  int
			doc string
		}
		var moves []move
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 64*1024), 4<<20)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var rec DocResponse
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				stream.Body.Close()
				writeError(w, http.StatusBadGateway,
					fmt.Sprintf("member %s answered a malformed listing", m.Name))
				return
			}
			resp.Scanned++
			if owner := co.cl.Owner(rec.ID); owner.Name != m.Name {
				moves = append(moves, move{id: rec.ID, doc: rec.Doc})
			}
		}
		scanErr := sc.Err()
		stream.Body.Close()
		if scanErr != nil {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("listing %s died mid-stream: %v", m.Name, scanErr))
			return
		}
		for _, mv := range moves {
			owner := co.cl.Owner(mv.id)
			body, _ := json.Marshal(DocRequest{ID: &mv.id, Doc: &mv.doc})
			ins, err := co.cl.Call(r.Context(), owner.Name, cluster.CallOpts{
				Route: "/v1/docs", Method: http.MethodPost, Path: "/v1/docs",
				Body: body, ContentType: "application/json", Retry: true,
			})
			if err != nil || ins.Status != http.StatusCreated {
				writeError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("moving document %d to %s failed", mv.id, owner.Name))
				return
			}
			// Insert-then-delete: only after the owner holds the copy is
			// the source's removed.
			del, err := co.cl.Call(r.Context(), m.Name, cluster.CallOpts{
				Route: "/v1/docs/{id}", Method: http.MethodDelete,
				Path: "/v1/docs/" + strconv.Itoa(mv.id), Retry: true,
			})
			if err != nil || (del.Status != http.StatusOK && del.Status != http.StatusNotFound) {
				writeError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("removing document %d from %s failed", mv.id, m.Name))
				return
			}
			resp.Moved++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
