package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"passjoin/internal/obs"
)

// daemon is the serving core the member Server and the cluster
// Coordinator both embed: the request bounds, the route mux, the process
// identity, and the metric registry with its per-route HTTP middleware.
// Each daemon registers its own families into reg and hands its route
// table to serve.
type daemon struct {
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	logger *slog.Logger // never nil; discards when unconfigured
	build  buildInfo
	reg    *obs.Registry

	httpReqs *obs.CounterVec   // passjoin_http_requests_total{route,method,code}
	httpLat  *obs.HistogramVec // passjoin_http_request_duration_seconds{route}
}

func newDaemon(cfg Config) daemon {
	d := daemon{
		cfg:   cfg.withDefaults(),
		mux:   http.NewServeMux(),
		start: time.Now(),
		build: readBuildInfo(),
		reg:   obs.NewRegistry(),
	}
	d.logger = d.cfg.Logger
	if d.logger == nil {
		d.logger = slog.New(slog.DiscardHandler)
	}
	d.httpReqs = d.reg.CounterVec("passjoin_http_requests_total",
		"HTTP requests served, by route, method and status code.",
		"route", "method", "code")
	d.httpLat = d.reg.HistogramVec("passjoin_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.",
		obs.LatencyBuckets, "route")
	return d
}

// registerProcess adds the process-wide series: uptime (with the
// daemon's own HELP text), build info and the Go runtime.
func (d *daemon) registerProcess(uptimeHelp string) {
	d.reg.GaugeFunc("passjoin_uptime_seconds", uptimeHelp,
		func() float64 { return time.Since(d.start).Seconds() })
	d.reg.Collect("passjoin_build_info",
		"Build metadata; value is always 1.",
		"gauge", []string{"go_version", "revision"},
		func(emit func([]string, float64)) {
			emit([]string{d.build.goVersion, d.build.revision}, 1)
		})
	obs.RegisterRuntime(d.reg)
}

// route is one row of a daemon's route table.
type route struct {
	method, path string
	handler      http.HandlerFunc
}

// serve registers a route table. Every route goes through instrument
// (request IDs, access log, per-route counters and latency histograms)
// under its path as the route label, fixed here so the label's
// cardinality is the table, never the request URL. Each path also gets a
// method-less fallback: a wrong-method hit answers a JSON 405 whose Allow
// header lists the path's methods in table order (the method-specific
// patterns are more specific, so they keep winning for supported
// methods).
func (d *daemon) serve(routes []route) {
	allow := map[string][]string{}
	for _, rt := range routes {
		d.mux.Handle(rt.method+" "+rt.path, d.instrument(rt.path, rt.handler))
		allow[rt.path] = append(allow[rt.path], rt.method)
	}
	for path, methods := range allow {
		d.mux.Handle(path, d.instrument(path, methodNotAllowed(strings.Join(methods, ", "))))
	}
}

func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; allowed: %s", r.Method, allow))
	}
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mux.ServeHTTP(w, r)
}

// Metrics returns the daemon's metric registry — the same families
// /metrics exposes — for tests and embedders.
func (d *daemon) Metrics() http.Handler { return d.reg.Handler() }

// handleMetrics serves the Prometheus text exposition.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.reg.Handler().ServeHTTP(w, r)
}
