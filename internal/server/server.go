// Package server implements the passjoind HTTP serving layer: a
// concurrent similarity-search service over a Pass-Join index.
//
// The server owns an Index — either the static, immutable passjoin.Searcher
// (one frozen index, built in parallel) or the mutable
// passjoin.DynamicSearcher (one frozen base, a delta and tombstones) — and
// exposes it over HTTP/JSON:
//
//	GET    /healthz            liveness + index shape
//	GET    /v1/search?q=...    single lookup (all matches within tau);
//	                           &tau= answers at a smaller threshold and
//	                           &k= keeps the k nearest
//	POST   /v1/search          same, JSON body {"query": "...", "k": 5,
//	                           "tau": 1}
//	POST   /v1/batch           batch lookup {"queries": [...], "k": 0,
//	                           "tau": 1}
//	GET    /v1/topk?q=...&k=5  k nearest within tau (&tau= supported)
//	POST   /v1/dedup           streaming self-dedup: text lines in,
//	                           NDJSON near-duplicate pairs out
//	POST   /v1/join/self       bulk self join: text lines in, NDJSON
//	                           pair+distance records streamed out
//	POST   /v1/join            bulk R×S join: two line sections separated
//	                           by one blank line, NDJSON records out
//	GET    /v1/stats           server counters + aggregated index stats
//	GET    /metrics            Prometheus text exposition of the same
//	                           (plus per-route latency histograms,
//	                           per-phase query timings and Go runtime
//	                           stats)
//
// Every response carries an X-Request-Id header (propagated from the
// request's own X-Request-Id, or generated), and every request is
// access-logged through Config.Logger with that id. Search-style
// endpoints answer ?debug=timings with a per-phase timing breakdown,
// and Config.SlowQuery arms threshold logging of slow lookups.
//
// When the index is mutable (implements MutableIndex), the write path is
// exposed as well:
//
//	POST   /v1/docs            insert {"doc": "..."} → {"id": n}
//	GET    /v1/docs/{id}       fetch one live document
//	DELETE /v1/docs/{id}       tombstone a document
//
// Every lookup runs on its handler's goroutine; batch requests run their
// queries concurrently, one worker per core. All handlers are safe under
// arbitrary client concurrency. Requests that hit a known route with an
// unsupported method receive a JSON 405 carrying an Allow header rather
// than the mux default.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passjoin"
	"passjoin/internal/repl"
	"passjoin/internal/verify"
)

// Index is the read contract every searcher kind satisfies: the unified
// passjoin.Index (per-query thresholds, top-k, limits, streaming) plus
// the shard-shape introspection the stats and health endpoints surface.
// The ?tau= and ?k= request parameters map straight onto the per-query
// options, so one index serves every threshold up to its build tau.
type Index interface {
	passjoin.Index
	NumShards() int
}

// MutableIndex is the additional write contract of
// passjoin.DynamicSearcher. Stats must be cheap enough to call per
// request.
type MutableIndex interface {
	Index
	Insert(doc string) (int, error)
	Delete(id int) (bool, error)
	Stats() passjoin.Stats
	// Err reports the most recent background-compaction failure, if any
	// — surfaced on /v1/stats so operators see a wedged compactor long
	// before shutdown.
	Err() error
}

// applier is the explicit-id write contract of passjoin.DynamicSearcher:
// a cluster coordinator allocates document ids globally and pushes each
// write to its owning member with the id already chosen, riding the same
// idempotent per-id path replication replay uses.
type applier interface {
	Apply(passjoin.Mutation) (bool, error)
}

// allLister is the bulk-listing contract both searcher kinds satisfy;
// GET /v1/docs streams it out as NDJSON so a coordinator can enumerate a
// member's corpus during a rebalance.
type allLister interface {
	All() iter.Seq2[int, string]
}

// idAllocator exposes the exclusive upper bound of the id space a
// mutable index has seen; /v1/stats surfaces it as next_id.
type idAllocator interface {
	NextID() int
}

// StatsProvider is the live-counter contract a read-only dynamic index
// (a replication follower) satisfies without being mutable: /v1/stats and
// the metric exposition prefer it over the static build-time snapshot.
// MutableIndex embeds the same two methods, so one structural check
// covers both.
type StatsProvider interface {
	Stats() passjoin.Stats
	Err() error
}

// Config bounds request handling; zero values select the defaults.
type Config struct {
	// MaxBatch caps the number of queries in one /v1/batch request
	// (default 1024).
	MaxBatch int
	// MaxBodyBytes caps request body sizes (default 8 MiB).
	MaxBodyBytes int64
	// DefaultTopK is the k used by /v1/topk when the request omits it
	// (default 10).
	DefaultTopK int
	// MaxJoinBytes caps the request body of the bulk-join endpoints
	// /v1/join and /v1/join/self, which hold the uploaded corpus in
	// memory for the duration of the join (default 32 MiB).
	MaxJoinBytes int64
	// Logger receives the access log, the slow-query log and handler
	// diagnostics as structured records. Nil discards them (metrics keep
	// recording either way).
	Logger *slog.Logger
	// SlowQuery, when > 0, traces every lookup (search, topk, batch) and
	// logs those whose end-to-end time meets the threshold at Warn level
	// with a per-phase breakdown; each also increments
	// passjoin_slow_queries_total and the phase histograms. Zero disables
	// tracing except for requests that ask with ?debug=timings.
	SlowQuery time.Duration
	// Replica marks the server as a read replica of the named primary
	// (its client-facing URL, quoted in error payloads). The write routes
	// are still registered, but answer a structured 409 directing the
	// client to the primary; GET /v1/docs/{id} keeps working against the
	// replicated index.
	Replica string
	// ReplStatus, when non-nil, is sampled for the replication section of
	// /v1/stats and the passjoin_repl_* metric family — set it on both
	// ends of a replication link (Source.Status on the primary,
	// Follower.Status on a replica).
	ReplStatus func() repl.Status
}

const (
	defaultMaxBatch     = 1024
	defaultMaxBodyBytes = 8 << 20
	defaultTopK         = 10
	defaultMaxJoinBytes = 32 << 20
	// joinFlushEvery is the pair interval between explicit flushes on a
	// join stream, so slow joins deliver results while still running.
	joinFlushEvery = 64
	// maxJoinTau bounds the ?tau= override on the upload endpoints (dedup
	// and the joins). The engine allocates O(tau)-sized structures, so an
	// unchecked attacker-supplied threshold is a memory bomb; no join over
	// lines capped at 1 MiB can need more than this.
	maxJoinTau = 1 << 20
)

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = defaultMaxBatch
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.DefaultTopK <= 0 {
		c.DefaultTopK = defaultTopK
	}
	if c.MaxJoinBytes <= 0 {
		c.MaxJoinBytes = defaultMaxJoinBytes
	}
	return c
}

// Server serves similarity queries against a sharded index, and — when
// the index is mutable — accepts live document inserts and deletes. It
// implements http.Handler.
type Server struct {
	idx    Index
	dyn    MutableIndex // non-nil when idx is mutable
	stats  passjoin.Stats
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	logger *slog.Logger // never nil; discards when unconfigured
	obsv   *serverObs
	build  buildInfo

	queries   atomic.Int64 // lookups answered across search/batch/topk
	matches   atomic.Int64 // matches returned across those lookups
	dedups    atomic.Int64 // dedup streams completed
	inserts   atomic.Int64 // documents inserted via /v1/docs
	deletes   atomic.Int64 // documents deleted via /v1/docs/{id}
	joins     atomic.Int64 // bulk joins run to completion
	joinPairs atomic.Int64 // pairs streamed by completed bulk joins
}

// New builds a server around idx. indexStats, if non-nil, is the
// aggregated build-time instrumentation to surface on /v1/stats (pass the
// sink given to the searcher constructor via WithStats); a mutable index
// reports its own live stats instead.
func New(idx Index, indexStats *passjoin.Stats, cfg Config) *Server {
	s := &Server{
		idx:   idx,
		cfg:   cfg.withDefaults(),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.dyn, _ = idx.(MutableIndex)
	if indexStats != nil {
		s.stats = *indexStats
	}
	s.logger = s.cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.build = readBuildInfo()
	s.obsv = newServerObs(s)
	// Every route goes through instrument (request IDs, access log,
	// per-route counters and latency histograms). The route label is the
	// registration pattern's path, fixed here so its cardinality is the
	// route table, never the request URL.
	handle := func(method, path string, h http.HandlerFunc) {
		s.mux.Handle(method+" "+path, s.instrument(path, h))
	}
	handle("GET", "/healthz", s.handleHealth)
	handle("GET", "/v1/search", s.handleSearch)
	handle("POST", "/v1/search", s.handleSearch)
	handle("POST", "/v1/batch", s.handleBatch)
	handle("GET", "/v1/topk", s.handleTopK)
	handle("POST", "/v1/dedup", s.handleDedup)
	handle("POST", "/v1/join/self", s.handleJoinSelf)
	handle("POST", "/v1/join", s.handleJoinRS)
	handle("GET", "/v1/stats", s.handleStats)
	handle("GET", "/metrics", s.handleMetrics)
	allow := map[string]string{
		"/healthz":      "GET",
		"/v1/search":    "GET, POST",
		"/v1/batch":     "POST",
		"/v1/topk":      "GET",
		"/v1/dedup":     "POST",
		"/v1/join/self": "POST",
		"/v1/join":      "POST",
		"/v1/stats":     "GET",
		"/metrics":      "GET",
	}
	if s.dyn != nil {
		handle("POST", "/v1/docs", s.handleInsert)
		handle("GET", "/v1/docs/{id}", s.handleGetDoc)
		handle("DELETE", "/v1/docs/{id}", s.handleDeleteDoc)
		allow["/v1/docs"] = "POST"
		allow["/v1/docs/{id}"] = "GET, DELETE"
	} else if s.cfg.Replica != "" {
		// Read replica: document reads are served from the replicated
		// index, writes answer a structured 409 naming the primary so
		// clients can redirect instead of guessing.
		handle("POST", "/v1/docs", s.handleReadOnly)
		handle("GET", "/v1/docs/{id}", s.handleGetDoc)
		handle("DELETE", "/v1/docs/{id}", s.handleReadOnly)
		allow["/v1/docs"] = "POST"
		allow["/v1/docs/{id}"] = "GET, DELETE"
	}
	if _, ok := idx.(allLister); ok {
		handle("GET", "/v1/docs", s.handleListDocs)
		if strings.Contains(allow["/v1/docs"], "POST") {
			allow["/v1/docs"] = "GET, POST"
		} else {
			allow["/v1/docs"] = "GET"
		}
	}
	// Method-less fallbacks: a wrong-method hit on a known route answers
	// a JSON 405 with an Allow header instead of the mux default (the
	// method-specific patterns above are more specific, so they keep
	// winning for supported methods). Instrumented too: 405s show up in
	// the per-status counters under their route.
	for path, methods := range allow {
		s.mux.Handle(path, s.instrument(path, methodNotAllowed(methods)))
	}
	return s
}

// Metrics returns the server's metric registry — the same families
// /metrics exposes — for tests and embedders.
func (s *Server) Metrics() http.Handler { return s.obsv.reg.Handler() }

func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; allowed: %s", r.Method, allow))
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Match is one hit in a JSON response.
type Match struct {
	ID     int    `json:"id"`
	String string `json:"string"`
	Dist   int    `json:"dist"`
}

// SearchResponse is the reply to /v1/search and /v1/topk. Timings is
// present only when the request asked with ?debug=timings.
type SearchResponse struct {
	Query   string   `json:"query"`
	Matches []Match  `json:"matches"`
	Timings *Timings `json:"timings,omitempty"`
}

// BatchRequest is the body of /v1/batch. K > 0 truncates each result to
// the k nearest, 0 returns all matches within the threshold. Tau, when
// present, answers every query in the batch at that threshold instead of
// the index threshold (0 <= tau <= index tau).
type BatchRequest struct {
	Queries []string `json:"queries"`
	K       int      `json:"k,omitempty"`
	Tau     *int     `json:"tau,omitempty"`
}

// BatchResponse is the reply to /v1/batch; Results[i] answers Queries[i].
type BatchResponse struct {
	Results [][]Match `json:"results"`
}

// DedupPair is one NDJSON event on the /v1/dedup stream: input lines R
// and S (0-based) are within the threshold.
type DedupPair struct {
	R     int    `json:"r"`
	S     int    `json:"s"`
	Left  string `json:"left"`
	Right string `json:"right"`
	Dist  int    `json:"dist"`
}

// JoinPair is one NDJSON event on the /v1/join and /v1/join/self streams:
// line R of the first (or only) uploaded section is within the threshold
// of line S of the second (for self joins, of the same section; R < S).
type JoinPair struct {
	R     int    `json:"r"`
	S     int    `json:"s"`
	Left  string `json:"left"`
	Right string `json:"right"`
	Dist  int    `json:"dist"`
}

// DocRequest is the body of POST /v1/docs. Doc must be present (an empty
// string is a valid document). ID, when present, inserts under that
// exact document id instead of allocating one — the cluster
// coordinator's routed-write form, applied idempotently: re-sending an
// id the index already holds changes nothing and still succeeds.
type DocRequest struct {
	ID  *int    `json:"id,omitempty"`
	Doc *string `json:"doc"`
}

// DocResponse is the reply to the /v1/docs endpoints.
type DocResponse struct {
	ID      int    `json:"id"`
	Doc     string `json:"doc,omitempty"`
	Deleted bool   `json:"deleted,omitempty"`
}

// StatsResponse is the reply to /v1/stats. FrozenBytes is the exact
// retained size of the frozen (CSR) segment indices actually serving
// queries, summed across shards; Index carries the full counter set. The
// Delta*/Tombstones/Compactions/WAL* fields describe the dynamic write
// path and stay zero for a static index.
type StatsResponse struct {
	Strings int  `json:"strings"`
	Tau     int  `json:"tau"`
	Shards  int  `json:"shards"`
	Mutable bool `json:"mutable"`
	// NextID is the exclusive upper bound of the document-id space this
	// index has seen — the id the next plain insert would take. A static
	// index reports its corpus size (ids are 0..strings-1). Cluster
	// coordinators max this over all members to seed the global
	// allocator.
	NextID        int     `json:"next_id"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queries       int64   `json:"queries"`
	Matches       int64   `json:"matches"`
	DedupStreams  int64   `json:"dedup_streams"`
	Inserts       int64   `json:"inserts"`
	Deletes       int64   `json:"deletes"`
	Joins         int64   `json:"joins"`
	JoinPairs     int64   `json:"join_pairs"`
	FrozenBytes   int64   `json:"frozen_bytes"`
	DeltaDocs     int64   `json:"delta_docs"`
	Tombstones    int64   `json:"tombstones"`
	Compactions   int64   `json:"compactions"`
	CompactErrors int64   `json:"compact_errors"`
	WALBytes      int64   `json:"wal_bytes"`
	WALRecords    int64   `json:"wal_records"`
	CompactError  string  `json:"compact_error,omitempty"`
	// Repl is the replication section, present on both ends of a
	// replication link: role, watermark offsets, lag and link health.
	Repl *repl.Status `json:"repl,omitempty"`
	// GoVersion and Revision identify the running build (toolchain
	// version and VCS commit; "unknown" outside a VCS build).
	GoVersion string         `json:"go_version"`
	Revision  string         `json:"revision"`
	Index     passjoin.Stats `json:"index"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":  "ok",
		"strings": s.idx.Len(),
		"tau":     s.idx.Tau(),
		"shards":  s.idx.NumShards(),
		"mutable": s.dyn != nil,
	}
	if s.cfg.Replica != "" {
		body["replica"] = true
		body["primary"] = s.cfg.Replica
	}
	writeJSON(w, http.StatusOK, body)
}

// searchRequest is the POST body form of /v1/search. Tau, when present,
// answers the query at that threshold instead of the index threshold
// (0 <= tau <= index tau).
type searchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k,omitempty"`
	Tau   *int   `json:"tau,omitempty"`
}

// tauParam parses the optional ?tau= threshold override from the parsed
// query string, writing the error response itself when the value is
// malformed or unanswerable. The second return is false on failure; -1
// means the parameter was absent (use the index threshold).
func (s *Server) tauParam(w http.ResponseWriter, params url.Values) (int, bool) {
	raw := params.Get("tau")
	if raw == "" {
		return -1, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid tau: %q (must be a non-negative integer)", raw))
		return 0, false
	}
	return v, s.checkTau(w, v)
}

// tauField validates an optional JSON-body threshold override, mapping a
// nil pointer to -1 (absent).
func (s *Server) tauField(w http.ResponseWriter, tau *int) (int, bool) {
	if tau == nil {
		return -1, true
	}
	if *tau < 0 {
		writeError(w, http.StatusBadRequest, "tau must be non-negative")
		return 0, false
	}
	return *tau, s.checkTau(w, *tau)
}

// checkTau bounds an explicit per-request threshold by the build
// threshold: the partition is built into idx.Tau()+1 segments, so any
// smaller threshold is answerable exactly and anything larger is a client
// error.
func (s *Server) checkTau(w http.ResponseWriter, tau int) bool {
	if tau > s.idx.Tau() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("tau %d exceeds index tau %d (the index partition answers thresholds up to its build tau; start the server with a larger -tau)", tau, s.idx.Tau()))
		return false
	}
	return true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query() // parsed once per request: every read below shares it
	var q string
	var k int
	tau := -1
	switch r.Method {
	case http.MethodGet:
		q = params.Get("q")
		if q == "" {
			writeError(w, http.StatusBadRequest, "missing query parameter q")
			return
		}
		var ok bool
		if k, ok = intParam(w, params, "k", 0); !ok {
			return
		}
		if tau, ok = s.tauParam(w, params); !ok {
			return
		}
	default: // POST, enforced by the mux pattern
		var req searchRequest
		if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
			return
		}
		if req.Query == "" {
			writeError(w, http.StatusBadRequest, "missing query field")
			return
		}
		q, k = req.Query, req.K
		var ok bool
		if tau, ok = s.tauField(w, req.Tau); !ok {
			return
		}
	}
	if k < 0 {
		writeError(w, http.StatusBadRequest, "k must be non-negative")
		return
	}
	matches, timings := s.tracedLookup(params, q, k, tau)
	writeJSON(w, http.StatusOK, SearchResponse{Query: q, Matches: matches, Timings: timings})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	k, ok := intParam(w, params, "k", s.cfg.DefaultTopK)
	if !ok {
		return
	}
	if k <= 0 {
		writeError(w, http.StatusBadRequest, "k must be positive")
		return
	}
	tau, ok := s.tauParam(w, params)
	if !ok {
		return
	}
	matches, timings := s.tracedLookup(params, q, k, tau)
	writeJSON(w, http.StatusOK, SearchResponse{Query: q, Matches: matches, Timings: timings})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, "k must be non-negative")
		return
	}
	tau, ok := s.tauField(w, req.Tau)
	if !ok {
		return
	}
	results := make([][]Match, len(req.Queries))
	// A lookup stays on the goroutine that calls it, so the batch is the
	// only source of parallelism here: one worker per core.
	workers := min(runtime.GOMAXPROCS(0), len(req.Queries))
	// With slow-query tracing armed, every batch query gets its own trace
	// (a trace must not be shared across the concurrent workers).
	traced := s.cfg.SlowQuery > 0
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Queries) {
					return
				}
				if traced {
					var tr passjoin.Trace
					qstart := time.Now()
					results[i] = s.lookup(req.Queries[i], req.K, tau, &tr)
					s.observeTrace(req.Queries[i], &tr, time.Since(qstart))
				} else {
					results[i] = s.lookup(req.Queries[i], req.K, tau, nil)
				}
			}
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// handleInsert adds one document to the mutable index. The new id is
// stable for the life of the index (and across restarts with a WAL).
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req DocRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.Doc == nil {
		writeError(w, http.StatusBadRequest, "missing doc field")
		return
	}
	if req.ID != nil {
		ap, ok := s.dyn.(applier)
		if !ok {
			writeError(w, http.StatusBadRequest, "this index does not accept explicit-id inserts")
			return
		}
		applied, err := ap.Apply(passjoin.Mutation{ID: *req.ID, Doc: *req.Doc})
		if errors.Is(err, strconv.ErrRange) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if applied {
			s.inserts.Add(1)
		}
		writeJSON(w, http.StatusCreated, DocResponse{ID: *req.ID, Doc: *req.Doc})
		return
	}
	id, err := s.dyn.Insert(*req.Doc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.inserts.Add(1)
	writeJSON(w, http.StatusCreated, DocResponse{ID: id, Doc: *req.Doc})
}

// handleListDocs streams every live document as NDJSON {"id":n,"doc":s}
// records in whatever order the index yields them. A coordinator's
// rebalance enumerates each member through this route; it is cheap
// enough for operators too (one capture under the index's read lock,
// which writers wait out but readers share).
func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	n := 0
	for id, doc := range s.idx.(allLister).All() {
		if err := enc.Encode(DocResponse{ID: id, Doc: doc}); err != nil {
			return // client went away
		}
		if n++; flusher != nil && n%joinFlushEvery == 0 {
			flusher.Flush()
		}
	}
}

func (s *Server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	doc, ok := s.idx.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no live document with id %d", id))
		return
	}
	writeJSON(w, http.StatusOK, DocResponse{ID: id, Doc: doc})
}

// ReadOnlyResponse is the 409 payload a read replica answers on the
// write routes: the error plus the primary every write must go to.
type ReadOnlyResponse struct {
	Error   string `json:"error"`
	Primary string `json:"primary"`
}

// handleReadOnly rejects a write on a read replica with a structured 409
// naming the primary (also echoed in the X-Replication-Primary header for
// clients that do not parse bodies).
func (s *Server) handleReadOnly(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Replication-Primary", s.cfg.Replica)
	writeJSON(w, http.StatusConflict, ReadOnlyResponse{
		Error:   "this server is a read replica and does not accept writes; send them to the primary",
		Primary: s.cfg.Replica,
	})
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	deleted, err := s.dyn.Delete(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !deleted {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no live document with id %d", id))
		return
	}
	s.deletes.Add(1)
	writeJSON(w, http.StatusOK, DocResponse{ID: id, Deleted: true})
}

func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil || id < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid document id %q", raw))
		return 0, false
	}
	return id, true
}

// handleDedup streams near-duplicate pairs for the uploaded lines as they
// are discovered: each input line is inserted into an online Matcher and
// every previously seen line within the threshold is emitted immediately
// as one NDJSON object. An optional ?tau= overrides the index threshold.
func (s *Server) handleDedup(w http.ResponseWriter, r *http.Request) {
	tau, ok := s.uploadTau(w, r.URL.Query())
	if !ok {
		return
	}
	m, err := passjoin.NewMatcher(tau)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sc := lineScanner(w, r, s.cfg.MaxBodyBytes)
	line := 0
	wrote := false
	for sc.Scan() {
		str := sc.Text()
		for _, dup := range m.Insert(str) {
			pair := DedupPair{
				R:     dup,
				S:     line,
				Left:  m.At(dup),
				Right: str,
				Dist:  passjoin.EditDistance(m.At(dup), str),
			}
			if !wrote {
				w.Header().Set("Content-Type", "application/x-ndjson")
				wrote = true
			}
			if err := enc.Encode(pair); err != nil {
				return // client went away; stop reading
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		line++
	}
	if err := sc.Err(); err != nil {
		// Before the first pair the status code is still ours to set;
		// after it, a terminal NDJSON error record is the best signal left.
		if !wrote {
			writeError(w, scanErrStatus(err), "reading body: "+err.Error())
		} else {
			_ = enc.Encode(errorResponse{Error: "stream truncated: " + err.Error()})
		}
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	s.dedups.Add(1)
}

func (s *Server) handleJoinSelf(w http.ResponseWriter, r *http.Request) { s.handleJoin(w, r, true) }
func (s *Server) handleJoinRS(w http.ResponseWriter, r *http.Request)   { s.handleJoin(w, r, false) }

// handleJoin runs a bulk similarity join over an uploaded corpus and
// streams the result pairs back as NDJSON while the join is still
// running. The request body is text lines — one string per line; for the
// R×S form, the R and S sections are separated by the first blank line
// (later blank lines count as empty strings). ?tau= overrides the index
// threshold and ?parallel= the probe worker count (0 or absent =
// GOMAXPROCS, capped at 4×GOMAXPROCS). The join runs under the request
// context, so a dropped client connection cancels the probe workers.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request, self bool) {
	params := r.URL.Query()
	tau, ok := s.uploadTau(w, params)
	if !ok {
		return
	}
	par, ok := intParam(w, params, "parallel", 0)
	if !ok {
		return
	}
	if par < 0 {
		writeError(w, http.StatusBadRequest, "parallel must be non-negative")
		return
	}
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if limit := 4 * runtime.GOMAXPROCS(0); par > limit {
		par = limit
	}
	rset, sset, _, ok := readJoinBody(w, r, s.cfg.MaxJoinBytes, self)
	if !ok {
		return
	}
	ctx := r.Context()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Every emitted pair is within tau by construction, so the tau-banded
	// verifier recovers its exact distance in O((τ+1)·len) instead of the
	// full-DP EditDistance; yield runs on this goroutine only, so one
	// scratch-reusing verifier serves the whole stream.
	var ver verify.Verifier
	var pairs int64
	wrote := false
	clientGone := false
	yield := func(ri, si int) bool {
		left := rset[ri]
		var right string
		if self {
			right = rset[si]
		} else {
			right = sset[si]
		}
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			wrote = true
		}
		p := JoinPair{R: ri, S: si, Left: left, Right: right, Dist: ver.Dist(left, right, tau)}
		if err := enc.Encode(p); err != nil {
			clientGone = true // write failed; stop the join
			return false
		}
		pairs++
		// Flush the first pair immediately, then every joinFlushEvery-th:
		// clients see output while the join is still running even when the
		// result set is small.
		if flusher != nil && pairs%joinFlushEvery == 1 {
			flusher.Flush()
		}
		return true
	}
	var err error
	if workers := passjoin.WithParallelism(par); self {
		err = passjoin.SelfJoinEachCtx(ctx, rset, tau, yield, workers)
	} else {
		err = passjoin.JoinEachCtx(ctx, rset, sset, tau, yield, workers)
	}
	if err != nil || clientGone {
		if ctx.Err() != nil || clientGone {
			return // client went away; the workers are already cancelled
		}
		if !wrote {
			// Parameter validation already passed, so any error from the
			// engine itself (notably a recovered worker panic) is a server
			// fault, not a client one.
			writeError(w, http.StatusInternalServerError, err.Error())
		} else {
			_ = enc.Encode(errorResponse{Error: "join failed: " + err.Error()})
		}
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	if flusher != nil {
		flusher.Flush()
	}
	s.joins.Add(1)
	s.joinPairs.Add(pairs)
}

// uploadTau parses the optional ?tau= override of the upload routes
// (/v1/dedup, /v1/join, /v1/join/self), which run at any threshold
// rather than against the index: non-negative and at most maxJoinTau,
// defaulting to the index threshold. It writes the 400 itself.
func (s *Server) uploadTau(w http.ResponseWriter, params url.Values) (int, bool) {
	tau, ok := intParam(w, params, "tau", s.idx.Tau())
	switch {
	case !ok:
		return 0, false
	case tau < 0:
		writeError(w, http.StatusBadRequest, "tau must be non-negative")
		return 0, false
	case tau > maxJoinTau:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("tau %d exceeds the maximum %d", tau, maxJoinTau))
		return 0, false
	}
	return tau, true
}

// readJoinBody scans a join upload capped at limit bytes into its line
// sections, writing the error response itself on failure. With self set,
// every line (blank included) is one corpus string; otherwise the first
// blank line splits the R section from the S section and its absence is
// a client error. hasBlank reports an empty corpus string in either
// section, which the coordinator's chunked task encoding cannot carry.
func readJoinBody(w http.ResponseWriter, r *http.Request, limit int64, self bool) (rset, sset []string, hasBlank, ok bool) {
	sc := lineScanner(w, r, limit)
	inS := false
	for sc.Scan() {
		line := sc.Text()
		if !self && !inS && line == "" {
			inS = true
			continue
		}
		hasBlank = hasBlank || line == ""
		if inS {
			sset = append(sset, line)
		} else {
			rset = append(rset, line)
		}
	}
	if err := sc.Err(); err != nil {
		writeError(w, scanErrStatus(err), "reading body: "+err.Error())
		return nil, nil, false, false
	}
	if !self && !inS {
		writeError(w, http.StatusBadRequest,
			"missing blank-line separator between the R and S sections")
		return nil, nil, false, false
	}
	return rset, sset, hasBlank, true
}

// lineScanner returns a line scanner over the size-capped request body,
// shared by the dedup and join uploads (64 KiB initial / 1 MiB max line).
func lineScanner(w http.ResponseWriter, r *http.Request, limit int64) *bufio.Scanner {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, limit))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	return sc
}

// scanErrStatus maps a body-scan failure to its HTTP status: over the
// body cap or an overlong line is 413, anything else a client error.
func scanErrStatus(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) || errors.Is(err, bufio.ErrTooLong) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ist := s.stats
	var compactErr string
	if sp, ok := s.idx.(StatsProvider); ok {
		ist = sp.Stats()
		if err := sp.Err(); err != nil {
			compactErr = err.Error()
		}
	}
	var replStatus *repl.Status
	if s.cfg.ReplStatus != nil {
		st := s.cfg.ReplStatus()
		replStatus = &st
	}
	nextID := s.idx.Len()
	if alloc, ok := s.idx.(idAllocator); ok {
		nextID = alloc.NextID()
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Strings:       s.idx.Len(),
		Tau:           s.idx.Tau(),
		Shards:        s.idx.NumShards(),
		Mutable:       s.dyn != nil,
		NextID:        nextID,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries:       s.queries.Load(),
		Matches:       s.matches.Load(),
		DedupStreams:  s.dedups.Load(),
		Inserts:       s.inserts.Load(),
		Deletes:       s.deletes.Load(),
		Joins:         s.joins.Load(),
		JoinPairs:     s.joinPairs.Load(),
		FrozenBytes:   ist.FrozenBytes,
		DeltaDocs:     ist.DeltaDocs,
		Tombstones:    ist.Tombstones,
		Compactions:   ist.Compactions,
		CompactErrors: ist.CompactErrors,
		WALBytes:      ist.WALBytes,
		WALRecords:    ist.WALRecords,
		CompactError:  compactErr,
		Repl:          replStatus,
		GoVersion:     s.build.goVersion,
		Revision:      s.build.revision,
		Index:         ist,
	})
}

// tracedLookup answers one query, attaching a phase trace when the
// request's query string asks for ?debug=timings or slow-query logging is
// armed. The returned Timings is non-nil only for the debug case.
func (s *Server) tracedLookup(params url.Values, q string, k, tau int) ([]Match, *Timings) {
	debug := params.Get("debug") == "timings"
	if !debug && s.cfg.SlowQuery <= 0 {
		return s.lookup(q, k, tau, nil), nil
	}
	var tr passjoin.Trace
	start := time.Now()
	matches := s.lookup(q, k, tau, &tr)
	total := time.Since(start)
	s.observeTrace(q, &tr, total)
	if !debug {
		return matches, nil
	}
	return matches, timingsFrom(&tr, total)
}

// lookup answers one query against the shared index: all matches within
// the effective threshold (tau >= 0 overrides the index threshold),
// truncated to the k nearest when k > 0. One frozen index serves the
// whole spectrum of thresholds, so the override costs no extra memory.
// tr, when non-nil, records the probe's per-phase breakdown; it must not
// be shared with a concurrent lookup.
func (s *Server) lookup(q string, k, tau int, tr *passjoin.Trace) []Match {
	var opts []passjoin.QueryOption
	if tau >= 0 {
		opts = append(opts, passjoin.QueryTau(tau))
	}
	if k > 0 {
		opts = append(opts, passjoin.QueryTopK(k))
	}
	if tr != nil {
		opts = append(opts, passjoin.QueryTrace(tr))
	}
	hits := s.idx.Search(q, opts...)
	out := make([]Match, len(hits))
	for i, h := range hits {
		doc, _ := s.idx.Get(h.ID)
		out[i] = Match{ID: h.ID, String: doc, Dist: h.Dist}
	}
	s.queries.Add(1)
	s.matches.Add(int64(len(out)))
	return out
}

// decodeJSON parses a JSON body of at most limit bytes into v, rejecting
// unknown fields, and writes the error response itself when parsing fails:
// 413 for a body over the limit, 400 for any other fault. The daemon's and
// the coordinator's handlers both decode with it, so they answer a bad body
// byte-identically.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "invalid request body: "+err.Error())
		return false
	}
	return true
}

func intParam(w http.ResponseWriter, params url.Values, name string, def int) (int, bool) {
	raw := params.Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid %s: %q", name, raw))
		return 0, false
	}
	return v, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
