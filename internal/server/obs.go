package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"passjoin"
	"passjoin/internal/obs"
)

// The flight recorder: every serving-stack observable funnels into one
// obs.Registry exposed at GET /metrics. Three sourcing patterns, chosen
// per metric:
//
//   - Eager series (request counters, latency and phase histograms) are
//     updated by the middleware and handlers as work happens — one atomic
//     add each.
//   - Sampled counters/gauges mirror state the server already owns
//     (the atomic request tallies, index shape, dynamic write-path
//     figures): callbacks read them at scrape time, so nothing is
//     double-maintained.
//   - Runtime series come from runtime/metrics via obs.RegisterRuntime.
type serverObs struct {
	slow *obs.Counter // passjoin_slow_queries_total
	// phaseHist caches the per-phase histograms in obs.Phase order so the
	// per-query observe path skips the label lookup.
	phaseHist [obs.NumPhases]*obs.Histogram
}

// instrument wraps one route's handler with the flight-recorder
// middleware: request-ID propagation, per-route/status counting, the
// per-route latency histogram, and the access log. The route label is
// fixed at registration (http.Request.Pattern is only set on the mux's
// own copy of the request), so every registration goes through serve
// with an explicit label and cardinality stays bounded by the route table.
func (d *daemon) instrument(route string, next http.Handler) http.Handler {
	lat := d.httpLat.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		lat.ObserveDuration(dur)
		d.httpReqs.With(route, r.Method, strconv.Itoa(sw.Status())).Inc()
		d.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", rid),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", sw.Status()),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", dur))
	})
}

func newServerObs(s *Server) *serverObs {
	r := s.reg
	o := &serverObs{
		slow: r.Counter("passjoin_slow_queries_total",
			"Lookups slower than the -slow-query threshold."),
	}
	phase := r.HistogramVec("passjoin_query_phase_seconds",
		"Per-query wall time spent in each probe phase (traced queries only).",
		obs.PhaseBuckets, "phase")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		o.phaseHist[p] = phase.With(p.String())
	}

	// Request tallies: owned by the handler atomics, sampled per scrape.
	sample := func(name, help string, f func() int64) {
		r.CounterFunc(name, help, func() float64 { return float64(f()) })
	}
	sample("passjoin_queries_total", "Lookups answered across /v1/search, /v1/batch and /v1/topk.", s.queries.Load)
	sample("passjoin_matches_total", "Matches returned across those lookups.", s.matches.Load)
	sample("passjoin_dedup_streams_total", "Completed /v1/dedup streams.", s.dedups.Load)
	sample("passjoin_inserts_total", "Documents inserted via /v1/docs.", s.inserts.Load)
	sample("passjoin_deletes_total", "Documents deleted via /v1/docs/{id}.", s.deletes.Load)
	sample("passjoin_joins_total", "Bulk joins run to completion.", s.joins.Load)
	sample("passjoin_join_pairs_total", "Pairs streamed by completed bulk joins.", s.joinPairs.Load)

	// Index shape: everything /v1/stats knows, sampled per scrape from the
	// same source (live dynamic stats or the static build snapshot).
	r.GaugeFunc("passjoin_index_strings", "Live indexed strings.",
		func() float64 { return float64(s.idx.Len()) })
	r.GaugeFunc("passjoin_index_shards", "Workers that build the index (-shards); the index is one.",
		func() float64 { return float64(s.idx.NumShards()) })
	r.GaugeFunc("passjoin_index_tau", "Build threshold (largest answerable tau).",
		func() float64 { return float64(s.idx.Tau()) })
	stat := func(register func(string, string, func() float64), name, help string, f func(passjoin.Stats) int64) {
		register(name, help, func() float64 { return float64(f(s.indexStats())) })
	}
	stat(r.GaugeFunc, "passjoin_frozen_bytes", "Retained size of the frozen (CSR) segment index serving queries.",
		func(st passjoin.Stats) int64 { return st.FrozenBytes })
	stat(r.GaugeFunc, "passjoin_delta_docs", "Documents in the mutable deltas (live or tombstoned).",
		func(st passjoin.Stats) int64 { return st.DeltaDocs })
	stat(r.GaugeFunc, "passjoin_tombstones", "Deletes pending compaction.",
		func(st passjoin.Stats) int64 { return st.Tombstones })
	stat(r.GaugeFunc, "passjoin_wal_bytes", "Current write-ahead-log footprint in bytes.",
		func(st passjoin.Stats) int64 { return st.WALBytes })
	stat(r.GaugeFunc, "passjoin_wal_records", "Current write-ahead-log record count.",
		func(st passjoin.Stats) int64 { return st.WALRecords })
	stat(r.CounterFunc, "passjoin_compactions_total", "Completed compactions.",
		func(st passjoin.Stats) int64 { return st.Compactions })
	stat(r.CounterFunc, "passjoin_compact_errors_total", "Failed compactions.",
		func(st passjoin.Stats) int64 { return st.CompactErrors })

	// Replication link health, sampled from the Source/Follower status on
	// whichever end this server is. Registered only when replication is
	// configured so a standalone server's exposition stays unchanged.
	if rs := s.cfg.ReplStatus; rs != nil {
		r.GaugeFunc("passjoin_repl_applied_offset",
			"Replication watermark: highest sequence applied (follower) or published (primary).",
			func() float64 { return float64(rs().AppliedOffset) })
		r.GaugeFunc("passjoin_repl_primary_offset",
			"The follower's freshest view of the primary's watermark (0 on the primary itself).",
			func() float64 { return float64(rs().PrimaryOffset) })
		r.GaugeFunc("passjoin_repl_lag_ops",
			"Operations the follower has yet to apply to match the primary.",
			func() float64 { return float64(rs().Lag) })
		r.GaugeFunc("passjoin_repl_connected",
			"1 when the replication stream is live (any stream, on the primary).",
			func() float64 {
				if rs().Connected {
					return 1
				}
				return 0
			})
		r.GaugeFunc("passjoin_repl_followers",
			"Replication streams the primary is currently serving.",
			func() float64 { return float64(rs().Followers) })
		r.CounterFunc("passjoin_repl_resyncs_total",
			"Full snapshot bootstraps the follower has performed.",
			func() float64 { return float64(rs().Resyncs) })
		r.CounterFunc("passjoin_repl_reconnects_total",
			"Replication stream re-establishments after the initial connect.",
			func() float64 { return float64(rs().Reconnects) })
	}

	s.registerProcess("Seconds since the server started.")
	return o
}

// indexStats returns the freshest index-shape counters: a dynamic index's
// live stats (mutable or a follower), else the build-time snapshot.
func (s *Server) indexStats() passjoin.Stats {
	if sp, ok := s.idx.(StatsProvider); ok {
		return sp.Stats()
	}
	return s.stats
}

// buildInfo is the process identity surfaced on /v1/stats and in
// passjoin_build_info: the Go toolchain version and the VCS revision the
// binary was built from ("unknown" outside a VCS checkout).
type buildInfo struct {
	goVersion string
	revision  string
}

func readBuildInfo() buildInfo {
	b := buildInfo{goVersion: "unknown", revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.GoVersion != "" {
		b.goVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			b.revision = s.Value
		}
	}
	return b
}

// newRequestID returns 16 hex characters of crypto randomness — unique
// enough to correlate one request across logs and response headers.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the response status and body size. It always
// implements http.Flusher — the streaming handlers (dedup, join) assert
// it — forwarding to the underlying writer when that supports flushing,
// and exposes Unwrap for http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Status returns the recorded status, defaulting to 200 for handlers
// that never called WriteHeader (implicit OK on first write or an empty
// 200 response).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Timings is the ?debug=timings payload attached to a search response:
// the per-phase breakdown of where the lookup's wall time went.
type Timings struct {
	// TotalNanos is the lookup's end-to-end wall time (index fan-out,
	// merge, ranking and document fetch included).
	TotalNanos int64 `json:"total_nanos"`
	// Phases is the traced probe breakdown in fixed order: selection,
	// probe, dedup, verify. Phase times are exclusive and sum to the
	// traced probe time, which is <= TotalNanos (merge/rank/fetch run
	// outside the probe).
	Phases []passjoin.PhaseTiming `json:"phases"`
}

// observeTrace feeds one traced lookup's phases, in Trace.Phases order,
// into the per-phase histograms and the slow-query log.
func (s *Server) observeTrace(q string, phases []passjoin.PhaseTiming, total time.Duration) {
	for i, p := range phases {
		if p.Nanos > 0 || p.Count > 0 {
			s.obsv.phaseHist[i].Observe(float64(p.Nanos) / 1e9)
		}
	}
	if s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery {
		s.obsv.slow.Inc()
		attrs := make([]slog.Attr, 0, 3+int(obs.NumPhases))
		attrs = append(attrs,
			slog.String("query", truncateForLog(q)),
			slog.Duration("total", total),
			slog.Duration("threshold", s.cfg.SlowQuery))
		for _, p := range phases {
			attrs = append(attrs, slog.Duration(p.Phase, time.Duration(p.Nanos)))
		}
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
	}
}

// truncateForLog bounds a logged query string so one enormous query
// cannot flood the log.
func truncateForLog(q string) string {
	const max = 128
	if len(q) <= max {
		return q
	}
	return q[:max] + "..."
}
