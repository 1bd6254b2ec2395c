package server

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---- Prometheus exposition conformance ----

// promFamily is one parsed metric family from the exposition text.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

type promSample struct {
	name   string // full sample name (family, or family_bucket/_sum/_count)
	labels map[string]string
	value  float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition parses the Prometheus text format strictly, failing the
// test on any malformed line — the conformance half of writing the
// protocol by hand instead of importing the client library.
func parseExposition(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur *promFamily
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" {
			continue
		}
		switch {
		case strings.HasPrefix(l, "# HELP "):
			rest := strings.TrimPrefix(l, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", line, l)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("line %d: duplicate family %q", line, name)
			}
			cur = &promFamily{name: name, help: rest[len(name)+1:]}
			fams[name] = cur
		case strings.HasPrefix(l, "# TYPE "):
			rest := strings.TrimPrefix(l, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || cur == nil || cur.name != name {
				t.Fatalf("line %d: TYPE without immediately preceding HELP for %q: %q", line, name, l)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: bad type %q", line, typ)
			}
			cur.typ = typ
		case strings.HasPrefix(l, "#"):
			t.Fatalf("line %d: unexpected comment %q", line, l)
		default:
			s := parseSample(t, line, l)
			if cur == nil || !sampleOf(s.name, cur) {
				t.Fatalf("line %d: sample %q outside its family block", line, s.name)
			}
			if cur.typ == "" {
				t.Fatalf("line %d: sample %q before TYPE", line, s.name)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// sampleOf reports whether a sample name belongs to family f (exact for
// counters/gauges; _bucket/_sum/_count suffixes for histograms).
func sampleOf(name string, f *promFamily) bool {
	if name == f.name {
		return f.typ != "histogram"
	}
	suffix, ok := strings.CutPrefix(name, f.name)
	if !ok {
		return false
	}
	return suffix == "_bucket" || suffix == "_sum" || suffix == "_count"
}

func parseSample(t *testing.T, line int, l string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := l
	if i := strings.IndexByte(l, '{'); i >= 0 {
		s.name = l[:i]
		end := strings.LastIndexByte(l, '}')
		if end < i {
			t.Fatalf("line %d: unbalanced braces: %q", line, l)
		}
		for _, pair := range splitLabels(t, line, l[i+1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !promLabelRe.MatchString(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: malformed label %q", line, pair)
			}
			unq := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(v[1 : len(v)-1])
			s.labels[k] = unq
		}
		rest = strings.TrimSpace(l[end+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(l, " ")
		if !ok {
			t.Fatalf("line %d: no value: %q", line, l)
		}
	}
	if !promNameRe.MatchString(s.name) {
		t.Fatalf("line %d: invalid sample name %q", line, s.name)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: invalid value %q: %v", line, rest, err)
	}
	s.value = v
	return s
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(t *testing.T, line int, body string) []string {
	t.Helper()
	if body == "" {
		return nil
	}
	var out []string
	start, inq := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inq {
				i++
			}
		case '"':
			inq = !inq
		case ',':
			if !inq {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if inq {
		t.Fatalf("line %d: unterminated label quote: %q", line, body)
	}
	return append(out, body[start:])
}

// checkHistograms verifies every histogram family: per series, bucket
// counts cumulative and nondecreasing over ascending le, an le="+Inf"
// bucket equal to _count, and a _sum sample present.
func checkHistograms(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	for _, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		type hist struct {
			les    []float64
			counts []float64
			sum    *float64
			count  *float64
		}
		series := map[string]*hist{}
		key := func(labels map[string]string) string {
			parts := make([]string, 0, len(labels))
			for k, v := range labels {
				if k != "le" {
					parts = append(parts, k+"="+v)
				}
			}
			sortStrings(parts)
			return strings.Join(parts, ",")
		}
		for _, s := range f.samples {
			h := series[key(s.labels)]
			if h == nil {
				h = &hist{}
				series[key(s.labels)] = h
			}
			switch s.name {
			case f.name + "_bucket":
				le := s.labels["le"]
				if le == "" {
					t.Fatalf("%s: bucket without le label", f.name)
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s: bad le %q", f.name, le)
				}
				h.les = append(h.les, bound)
				h.counts = append(h.counts, s.value)
			case f.name + "_sum":
				v := s.value
				h.sum = &v
			case f.name + "_count":
				v := s.value
				h.count = &v
			}
		}
		for k, h := range series {
			if h.sum == nil || h.count == nil {
				t.Fatalf("%s{%s}: missing _sum or _count", f.name, k)
			}
			if len(h.les) == 0 || !math.IsInf(h.les[len(h.les)-1], 1) {
				t.Fatalf("%s{%s}: last bucket must be le=\"+Inf\"", f.name, k)
			}
			for i := 1; i < len(h.les); i++ {
				if h.les[i] <= h.les[i-1] {
					t.Fatalf("%s{%s}: le bounds not ascending", f.name, k)
				}
				if h.counts[i] < h.counts[i-1] {
					t.Fatalf("%s{%s}: bucket counts not cumulative: %v", f.name, k, h.counts)
				}
			}
			if got := h.counts[len(h.counts)-1]; got != *h.count {
				t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", f.name, k, got, *h.count)
			}
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func scrape(t *testing.T, base string) (string, map[string]*promFamily) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	return text, parseExposition(t, text)
}

func TestMetricsExposition(t *testing.T) {
	corpus := testCorpus(t, 300)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	// Exercise a few routes so the eager families have series; query real
	// corpus strings so the traced probe actually does phase work.
	var sr SearchResponse
	getJSON(t, ts.URL+"/v1/search?q="+url.QueryEscape(corpus[0]), &sr)
	getJSON(t, ts.URL+"/v1/search?q="+url.QueryEscape(corpus[1])+"&debug=timings", &sr)
	resp, err := http.Post(ts.URL+"/healthz", "text/plain", nil) // 405
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	raw, fams := scrape(t, ts.URL)
	checkHistograms(t, fams)

	for _, want := range []string{
		"passjoin_http_requests_total",
		"passjoin_http_request_duration_seconds",
		"passjoin_query_phase_seconds",
		"passjoin_queries_total",
		"passjoin_matches_total",
		"passjoin_index_strings",
		"passjoin_frozen_bytes",
		"passjoin_compact_errors_total",
		"passjoin_uptime_seconds",
		"passjoin_build_info",
		"passjoin_slow_queries_total",
		"go_goroutines",
		"go_gc_cycles_total",
	} {
		f := fams[want]
		if f == nil {
			t.Fatalf("family %q missing from exposition:\n%s", want, raw)
		}
		if f.typ == "" || f.help == "" {
			t.Fatalf("family %q missing HELP or TYPE", want)
		}
	}

	// The two searches and the 405 must be visible per route/status.
	var search200, health405 float64
	for _, s := range fams["passjoin_http_requests_total"].samples {
		switch {
		case s.labels["route"] == "/v1/search" && s.labels["code"] == "200":
			search200 = s.value
		case s.labels["route"] == "/healthz" && s.labels["code"] == "405":
			health405 = s.value
		}
	}
	if search200 < 2 {
		t.Fatalf("search 200 count = %v, want >= 2", search200)
	}
	if health405 != 1 {
		t.Fatalf("healthz 405 count = %v, want 1", health405)
	}

	// The debug=timings search must have fed the phase histograms.
	var phaseObs float64
	for _, s := range fams["passjoin_query_phase_seconds"].samples {
		if strings.HasSuffix(s.name, "_count") {
			phaseObs += s.value
		}
	}
	if phaseObs == 0 {
		t.Fatal("no phase observations after a debug=timings search")
	}

	// Families must be emitted in sorted order for scrape determinism.
	var names []string
	for sc := bufio.NewScanner(strings.NewReader(raw)); sc.Scan(); {
		if name, ok := strings.CutPrefix(sc.Text(), "# HELP "); ok {
			names = append(names, strings.SplitN(name, " ", 2)[0])
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("families not sorted: %q after %q", names[i], names[i-1])
		}
	}
}

// ---- middleware: request ids and status codes ----

func TestRequestIDGeneratedAndPropagated(t *testing.T) {
	_, ts := newTestServer(t, testCorpus(t, 100), 1, 1, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-Id")
	if len(gen) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", gen)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "my-trace-parent-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-trace-parent-7" {
		t.Fatalf("propagated request id = %q, want the caller's", got)
	}
}

func TestAccessLogAndStatusCounter(t *testing.T) {
	var buf syncBuffer
	logger := newTestLogger(&buf)
	srv, ts := newTestServer(t, testCorpus(t, 100), 1, 1, Config{Logger: logger})

	// A client error must be counted under its status and logged.
	resp, err := http.Get(ts.URL + "/v1/search") // missing q -> 400
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := srv.httpReqs.With("/v1/search", "GET", "400").Value(); got != 1 {
		t.Fatalf("400 counter = %d, want 1", got)
	}
	logged := buf.String()
	if !strings.Contains(logged, "msg=request") || !strings.Contains(logged, "status=400") {
		t.Fatalf("access log missing request record: %q", logged)
	}
	if !strings.Contains(logged, "route=/v1/search") {
		t.Fatalf("access log missing route: %q", logged)
	}
}

// ---- ?debug=timings ----

func TestDebugTimings(t *testing.T) {
	corpus := testCorpus(t, 500)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	q := url.QueryEscape(corpus[7])

	var sr SearchResponse
	if st := getJSON(t, ts.URL+"/v1/search?q="+q+"&debug=timings", &sr); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if sr.Timings == nil {
		t.Fatal("no timings in a debug=timings response")
	}
	if sr.Timings.TotalNanos <= 0 {
		t.Fatalf("total = %d", sr.Timings.TotalNanos)
	}
	wantOrder := []string{"selection", "probe", "dedup", "verify"}
	if len(sr.Timings.Phases) != len(wantOrder) {
		t.Fatalf("phases = %+v", sr.Timings.Phases)
	}
	var phaseSum int64
	for i, p := range sr.Timings.Phases {
		if p.Phase != wantOrder[i] {
			t.Fatalf("phase[%d] = %q, want %q", i, p.Phase, wantOrder[i])
		}
		if p.Nanos < 0 || p.Count < 0 {
			t.Fatalf("negative phase stat: %+v", p)
		}
		phaseSum += p.Nanos
	}
	// Phase times are exclusive probe-internal times: they must sum to no
	// more than the end-to-end wall time (which adds merge/rank/fetch),
	// and a real query must have spent observable time in the probe.
	if phaseSum > sr.Timings.TotalNanos {
		t.Fatalf("phase sum %d > total %d", phaseSum, sr.Timings.TotalNanos)
	}
	if phaseSum == 0 {
		t.Fatal("all phases zero for a traced query")
	}

	// Without the parameter the field must stay absent (omitempty).
	raw, err := http.Get(ts.URL + "/v1/search?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if strings.Contains(string(body), "timings") {
		t.Fatalf("untraced response leaked timings: %s", body)
	}
	var tr SearchResponse
	getJSON(t, ts.URL+"/v1/topk?q="+q+"&k=3&debug=timings", &tr)
	if tr.Timings == nil {
		t.Fatal("topk did not honor debug=timings")
	}
}

func TestSlowQueryLogged(t *testing.T) {
	var buf syncBuffer
	logger := newTestLogger(&buf)
	srv, ts := newTestServer(t, testCorpus(t, 300), 2, 2,
		Config{Logger: logger, SlowQuery: time.Nanosecond}) // everything is slow

	var sr SearchResponse
	getJSON(t, ts.URL+"/v1/search?q=smith", &sr)
	if got := srv.obsv.slow.Value(); got != 1 {
		t.Fatalf("slow counter = %d, want 1", got)
	}
	logged := buf.String()
	if !strings.Contains(logged, "slow query") || !strings.Contains(logged, "query=smith") {
		t.Fatalf("missing slow-query record: %q", logged)
	}
	for _, phase := range []string{"selection=", "probe=", "dedup=", "verify="} {
		if !strings.Contains(logged, phase) {
			t.Fatalf("slow-query record missing %s breakdown: %q", phase, logged)
		}
	}

	// Batch lookups go through the same tracer, one trace per query.
	var br BatchResponse
	postJSON(t, ts.URL+"/v1/batch", BatchRequest{Queries: []string{"smith", "jones", "brown"}}, &br)
	if got := srv.obsv.slow.Value(); got != 4 {
		t.Fatalf("slow counter after batch = %d, want 4", got)
	}
}

// ---- /v1/stats additions ----

func TestStatsBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, testCorpus(t, 100), 1, 1, Config{})
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.GoVersion == "" || st.Revision == "" {
		t.Fatalf("missing build info: go_version=%q revision=%q", st.GoVersion, st.Revision)
	}
	if !strings.HasPrefix(st.GoVersion, "go") {
		t.Fatalf("go_version = %q", st.GoVersion)
	}
	if st.CompactErrors != 0 {
		t.Fatalf("compact_errors = %d on a static index", st.CompactErrors)
	}
}

// ---- concurrency: scrapes racing queries, joins and writes ----

func TestMetricsRace(t *testing.T) {
	corpus := testCorpus(t, 300)
	_, ts := newTestServer(t, corpus, 2, 2, Config{SlowQuery: time.Hour})

	joinBody := strings.Join(corpus[:40], "\n")
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				resp, err := http.Get(fmt.Sprintf("%s/v1/search?q=%s&debug=timings", ts.URL, corpus[i%len(corpus)]))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 5 {
			resp, err := http.Post(ts.URL+"/v1/join/self?tau=1", "text/plain", strings.NewReader(joinBody))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	// One final scrape must still be conformant after the storm.
	_, fams := scrape(t, ts.URL)
	checkHistograms(t, fams)
}

// ---- helpers ----

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}
