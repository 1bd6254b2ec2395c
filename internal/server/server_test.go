package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"passjoin"
	"passjoin/internal/cluster"
	"passjoin/internal/dataset"
)

func testCorpus(t testing.TB, n int) []string {
	t.Helper()
	strs, err := dataset.ByName("author", n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return strs
}

func newTestServer(t testing.TB, corpus []string, tau, shards int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	var st passjoin.Stats
	idx, err := passjoin.NewSearcher(corpus, tau,
		passjoin.WithShards(shards), passjoin.WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, &st, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, v any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	corpus := testCorpus(t, 100)
	_, ts := newTestServer(t, corpus, 2, 4, Config{})
	var h map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h["status"] != "ok" || h["strings"] != float64(len(corpus)) || h["shards"] != float64(4) {
		t.Fatalf("health %v", h)
	}
}

// TestSearch checks GET and POST forms against the library answer.
func TestSearch(t *testing.T) {
	corpus := testCorpus(t, 300)
	tau := 2
	_, ts := newTestServer(t, corpus, tau, 4, Config{})
	ref, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range corpus[:25] {
		want := ref.Search(q)
		var got SearchResponse
		if code := getJSON(t, ts.URL+"/v1/search?q="+urlQueryEscape(q), &got); code != http.StatusOK {
			t.Fatalf("q=%q status %d", q, code)
		}
		checkMatches(t, q, got.Matches, want, corpus)

		var posted SearchResponse
		if code := postJSON(t, ts.URL+"/v1/search", lookupRequest{Query: q}, &posted); code != http.StatusOK {
			t.Fatalf("POST q=%q status %d", q, code)
		}
		if !reflect.DeepEqual(posted, got) {
			t.Fatalf("q=%q: POST %v GET %v", q, posted, got)
		}
	}
}

func checkMatches(t *testing.T, q string, got []Match, want []passjoin.Match, corpus []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("q=%q: %d matches, want %d", q, len(got), len(want))
	}
	for i := range got {
		w := Match{ID: want[i].ID, String: corpus[want[i].ID], Dist: want[i].Dist}
		if got[i] != w {
			t.Fatalf("q=%q match %d: got %+v want %+v", q, i, got[i], w)
		}
	}
}

func TestTopK(t *testing.T) {
	corpus := testCorpus(t, 300)
	tau := 3
	_, ts := newTestServer(t, corpus, tau, 4, Config{DefaultTopK: 2})
	ref, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	q := corpus[0]
	var got SearchResponse
	if code := getJSON(t, ts.URL+"/v1/topk?q="+urlQueryEscape(q)+"&k=3", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkMatches(t, q, got.Matches, ref.Search(q, passjoin.QueryTopK(3)), corpus)

	// Default k comes from config.
	if code := getJSON(t, ts.URL+"/v1/topk?q="+urlQueryEscape(q), &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	checkMatches(t, q, got.Matches, ref.Search(q, passjoin.QueryTopK(2)), corpus)
}

func TestBatch(t *testing.T) {
	corpus := testCorpus(t, 300)
	tau := 2
	_, ts := newTestServer(t, corpus, tau, 4, Config{})
	ref, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	queries := corpus[:64]
	var got BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Queries: queries}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(got.Results), len(queries))
	}
	for i, q := range queries {
		checkMatches(t, q, got.Results[i], ref.Search(q), corpus)
	}

	// Over-limit batches are rejected.
	_, ts2 := newTestServer(t, corpus[:20], tau, 2, Config{MaxBatch: 4})
	var e errorResponse
	if code := postJSON(t, ts2.URL+"/v1/batch", BatchRequest{Queries: corpus[:5]}, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d body %+v", code, e)
	}
}

// TestDedupStream posts lines and checks the streamed pairs equal the
// batch self-join answer: for a body read at once, and for one of about
// 180 KiB, which the handler is still reading when it flushes its first
// pairs.
func TestDedupStream(t *testing.T) {
	for _, n := range []int{200, 12000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { testDedupStream(t, n) })
	}
}

func testDedupStream(t *testing.T, n int) {
	corpus := testCorpus(t, n)
	tau := 2
	_, ts := newTestServer(t, corpus[:50], tau, 2, Config{})

	body := strings.Join(corpus, "\n")
	resp, err := http.Post(ts.URL+"/v1/dedup", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got []passjoin.Pair
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p PairRecord
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if p.Left != corpus[p.R] || p.Right != corpus[p.S] {
			t.Fatalf("pair %+v does not match input lines", p)
		}
		if p.Dist > tau {
			t.Fatalf("pair %+v beyond threshold", p)
		}
		got = append(got, passjoin.Pair{R: p.R, S: p.S})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := passjoin.SelfJoin(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup stream: %d pairs, self join: %d", len(got), len(want))
	}
}

// TestDedupOverlongLine checks that a body the line scanner cannot hold
// fails loudly (413) instead of returning 200 with silently truncated
// results — also when lines that matched nothing came before it.
func TestDedupOverlongLine(t *testing.T) {
	corpus := testCorpus(t, 20)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	for _, prefix := range []string{"", "hello world\nquixotic zebra\n"} {
		resp, err := http.Post(ts.URL+"/v1/dedup", "text/plain",
			strings.NewReader(prefix+strings.Repeat("x", 2<<20)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("after %q: status %d want %d", prefix, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
	}
}

// TestDedupLongLines: a pair of long lines one edit apart is reported at
// its distance in a fraction of the client's patience — the distance comes
// from the tau-banded verifier, not from a DP quadratic in the line length
// (about 1.7·10¹⁰ cells here).
func TestDedupLongLines(t *testing.T) {
	_, ts := newTestServer(t, testCorpus(t, 20), 2, 2, Config{})
	rng := rand.New(rand.NewSource(5))
	line := make([]byte, 128<<10)
	for i := range line {
		line[i] = byte('a' + rng.Intn(26))
	}
	edited := slices.Clone(line)
	edited[len(edited)/2]++
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/dedup", "text/plain", strings.NewReader(string(line)+"\n"+string(edited)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var p PairRecord
	if err := json.Unmarshal(body, &p); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %.200q: %v", resp.StatusCode, body, err)
	}
	if p.R != 0 || p.S != 1 || p.Dist != 1 {
		t.Fatalf("pair (%d, %d) at distance %d, want (0, 1) at 1", p.R, p.S, p.Dist)
	}
}

func sortPairs(ps []passjoin.Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].R < ps[j-1].R || (ps[j].R == ps[j-1].R && ps[j].S < ps[j-1].S)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// TestConcurrentClients hammers every lookup endpoint from parallel
// goroutines; run under -race this exercises the pooled query probers and
// atomic counters.
func TestConcurrentClients(t *testing.T) {
	corpus := testCorpus(t, 400)
	tau := 2
	srv, ts := newTestServer(t, corpus, tau, 4, Config{})
	ref, err := passjoin.NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := corpus[(g*53+i*17)%len(corpus)]
				var got SearchResponse
				resp, err := http.Get(ts.URL + "/v1/search?q=" + urlQueryEscape(q))
				if err != nil {
					report(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				want := ref.Search(q)
				if len(got.Matches) != len(want) {
					report(fmt.Errorf("q=%q: %d matches want %d", q, len(got.Matches), len(want)))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Queries != 8*40 {
		t.Fatalf("queries=%d want %d", st.Queries, 8*40)
	}
	if st.Shards != 4 || st.Strings != len(corpus) || st.Index.Strings != int64(len(corpus)) {
		t.Fatalf("stats %+v", st)
	}
	if st.FrozenBytes == 0 || st.Index.FrozenBytes != st.FrozenBytes || st.Index.FrozenEntries == 0 {
		t.Fatalf("frozen index stats not surfaced: %+v", st)
	}
	var raw struct {
		Index map[string]any `json:"index"`
	}
	getJSON(t, ts.URL+"/v1/stats", &raw)
	for _, k := range []string{"Verifications", "SigRejects"} {
		if _, ok := raw.Index[k]; !ok {
			t.Errorf("/v1/stats index has no %q field: %v", k, raw.Index)
		}
	}
	_ = srv
}

func TestBadRequests(t *testing.T) {
	corpus := testCorpus(t, 50)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	cases := []struct {
		method, path string
		body         string
		want         int
	}{
		{"GET", "/v1/search", "", http.StatusBadRequest},              // missing q
		{"GET", "/v1/search?q=x&k=zap", "", http.StatusBadRequest},    // bad k
		{"GET", "/v1/search?q=x&k=-1", "", http.StatusBadRequest},     // negative k
		{"GET", "/v1/topk?q=x&k=0", "", http.StatusBadRequest},        // non-positive k
		{"POST", "/v1/search", `{}`, http.StatusBadRequest},           // empty query
		{"POST", "/v1/search", `{"query":""}`, http.StatusBadRequest}, // empty query
		{"POST", "/v1/batch", "{", http.StatusBadRequest},             // truncated JSON
		{"POST", "/v1/batch", `{"bogus":1}`, http.StatusBadRequest},   // unknown field
		{"GET", "/v1/dedup", "", http.StatusMethodNotAllowed},         // wrong method
		{"POST", "/v1/dedup?tau=-2", "", http.StatusBadRequest},       // bad tau
		{"DELETE", "/v1/search?q=x", "", http.StatusMethodNotAllowed}, // wrong method
		{"GET", "/v1/nonesuch", "", http.StatusNotFound},              // unknown route
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// urlQueryEscape is a minimal query escaper for test corpora (spaces only;
// dataset strings are otherwise URL-safe).
func urlQueryEscape(s string) string {
	return strings.ReplaceAll(s, " ", "%20")
}

// getBody fetches a URL and returns status and raw body bytes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestSearchQueryTau is the serving-layer half of the "one index, many
// thresholds" property: a tau=3 server answering /v1/search?tau=1 must
// return byte-identical responses to a dedicated tau=1 server over the
// same corpus, for search, top-k and batch.
func TestSearchQueryTau(t *testing.T) {
	corpus := testCorpus(t, 300)
	_, big := newTestServer(t, corpus, 3, 4, Config{})
	for _, qt := range []int{0, 1, 2} {
		_, dedicated := newTestServer(t, corpus, qt, 4, Config{})
		for _, q := range corpus[:20] {
			bigCode, bigBody := getBody(t, big.URL+"/v1/search?q="+urlQueryEscape(q)+fmt.Sprintf("&tau=%d", qt))
			dedCode, dedBody := getBody(t, dedicated.URL+"/v1/search?q="+urlQueryEscape(q))
			if bigCode != http.StatusOK || dedCode != http.StatusOK {
				t.Fatalf("qt=%d q=%q: status %d vs %d", qt, q, bigCode, dedCode)
			}
			if !bytes.Equal(bigBody, dedBody) {
				t.Fatalf("qt=%d q=%q: tau-override response differs from dedicated server\n%s\nvs\n%s", qt, q, bigBody, dedBody)
			}

			bigCode, bigBody = getBody(t, big.URL+"/v1/topk?k=5&q="+urlQueryEscape(q)+fmt.Sprintf("&tau=%d", qt))
			dedCode, dedBody = getBody(t, dedicated.URL+"/v1/topk?k=5&q="+urlQueryEscape(q))
			if bigCode != http.StatusOK || dedCode != http.StatusOK {
				t.Fatalf("topk qt=%d q=%q: status %d vs %d", qt, q, bigCode, dedCode)
			}
			if !bytes.Equal(bigBody, dedBody) {
				t.Fatalf("topk qt=%d q=%q: responses differ", qt, q)
			}
		}

		// Batch: the tau field applies to every query in the batch.
		qt := qt
		var bigBatch, dedBatch BatchResponse
		if code := postJSON(t, big.URL+"/v1/batch", BatchRequest{Queries: corpus[:20], Tau: &qt}, &bigBatch); code != http.StatusOK {
			t.Fatalf("batch qt=%d status %d", qt, code)
		}
		if code := postJSON(t, dedicated.URL+"/v1/batch", BatchRequest{Queries: corpus[:20]}, &dedBatch); code != http.StatusOK {
			t.Fatalf("dedicated batch status %d", code)
		}
		if !reflect.DeepEqual(bigBatch, dedBatch) {
			t.Fatalf("batch qt=%d: results differ", qt)
		}
	}
}

// TestQueryTauValidation pins the structured 400s: tau above the index
// threshold, negative tau, and garbage tau — on the GET and POST forms.
func TestQueryTauValidationHTTP(t *testing.T) {
	corpus := testCorpus(t, 50)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	for _, bad := range []string{"3", "-1", "-2", "abc", "1e3"} {
		var e map[string]any
		if code := getJSON(t, ts.URL+"/v1/search?q=x&tau="+bad, &e); code != http.StatusBadRequest {
			t.Errorf("search tau=%s: status %d, want 400", bad, code)
		} else if e["error"] == "" {
			t.Errorf("search tau=%s: no structured error", bad)
		}
		if code := getJSON(t, ts.URL+"/v1/topk?q=x&k=2&tau="+bad, &e); code != http.StatusBadRequest {
			t.Errorf("topk tau=%s: status %d, want 400", bad, code)
		}
	}
	for _, bad := range []int{3, -1} {
		bad := bad
		var e map[string]any
		if code := postJSON(t, ts.URL+"/v1/search", lookupRequest{Query: "x", Tau: &bad}, &e); code != http.StatusBadRequest {
			t.Errorf("POST search tau=%d: status %d, want 400", bad, code)
		}
		if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Queries: []string{"x"}, Tau: &bad}, &e); code != http.StatusBadRequest {
			t.Errorf("POST batch tau=%d: status %d, want 400", bad, code)
		}
	}
	// tau at exactly the index threshold is the no-op override, not an error.
	var ok SearchResponse
	if code := getJSON(t, ts.URL+"/v1/search?q=x&tau=2", &ok); code != http.StatusOK {
		t.Errorf("tau at index threshold: status %d, want 200", code)
	}
}

// TestQueryTauOnDynamicServer checks the override is honored by a mutable
// index too, including documents that arrived through the write path.
func TestQueryTauOnDynamicServer(t *testing.T) {
	corpus := testCorpus(t, 120)
	_, ts := newDynamicTestServer(t, corpus[:60], 3, 2, Config{})
	for _, doc := range corpus[60:] {
		var resp DocResponse
		if code := postJSON(t, ts.URL+"/v1/docs", map[string]string{"doc": doc}, &resp); code != http.StatusCreated {
			t.Fatalf("insert status %d", code)
		}
	}
	ref, err := passjoin.NewSearcher(corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range corpus[:15] {
		want := ref.Search(q)
		var got SearchResponse
		if code := getJSON(t, ts.URL+"/v1/search?tau=1&q="+urlQueryEscape(q), &got); code != http.StatusOK {
			t.Fatalf("q=%q status %d", q, code)
		}
		checkMatches(t, q, got.Matches, want, corpus)
	}
}

func newDynamicTestServer(t testing.TB, corpus []string, tau, shards int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	idx, err := passjoin.NewDynamicSearcher(corpus, tau,
		passjoin.WithShards(shards), passjoin.WithCompactThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	srv := New(idx, nil, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestDocsLifecycle drives the write path end to end: insert, fetch,
// search sees the doc, delete, 404 afterwards, stats reflect it all.
func TestDocsLifecycle(t *testing.T) {
	corpus := testCorpus(t, 50)
	_, ts := newDynamicTestServer(t, corpus, 2, 2, Config{})

	var created DocResponse
	if code := postJSON(t, ts.URL+"/v1/docs", map[string]string{"doc": "brand new document"}, &created); code != http.StatusCreated {
		t.Fatalf("insert status %d", code)
	}
	if created.ID < len(corpus) {
		t.Fatalf("new id %d collides with seed corpus", created.ID)
	}

	var got DocResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/docs/%d", ts.URL, created.ID), &got); code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	if got.Doc != "brand new document" {
		t.Fatalf("get doc %q", got.Doc)
	}

	var sr SearchResponse
	if code := getJSON(t, ts.URL+"/v1/search?q="+urlQueryEscape("brand new document"), &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	found := false
	for _, m := range sr.Matches {
		if m.ID == created.ID && m.Dist == 0 && m.String == "brand new document" {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted doc not searchable: %+v", sr.Matches)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/docs/%d", ts.URL, created.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del DocResponse
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !del.Deleted {
		t.Fatalf("delete: status %d body %+v", resp.StatusCode, del)
	}

	// Gone now: GET and a second DELETE both 404.
	var e errorResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/docs/%d", ts.URL, created.ID), &e); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/docs/%d", ts.URL, created.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d", resp.StatusCode)
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if !st.Mutable || st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Strings != len(corpus) {
		t.Fatalf("stats strings=%d want %d", st.Strings, len(corpus))
	}
	if st.Tombstones != 1 && st.Compactions == 0 {
		t.Fatalf("delete visible in neither tombstones nor compactions: %+v", st)
	}
	if st.Index.Strings != int64(len(corpus)) {
		t.Fatalf("live index stats not surfaced: %+v", st.Index)
	}
}

func TestDocsBadRequests(t *testing.T) {
	corpus := testCorpus(t, 30)
	_, ts := newDynamicTestServer(t, corpus, 2, 2, Config{})
	var e errorResponse
	if code := postJSON(t, ts.URL+"/v1/docs", map[string]int{"doc": 3}, &e); code != http.StatusBadRequest {
		t.Fatalf("non-string doc: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/docs", map[string]string{}, &e); code != http.StatusBadRequest {
		t.Fatalf("missing doc field: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/docs/notanumber", &e); code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/docs/-4", &e); code != http.StatusBadRequest {
		t.Fatalf("negative id: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/docs/999999", &e); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", code)
	}
}

// TestDocsRoutesAbsentOnStaticIndex: a read-only server must not expose
// the write path. The collection route still exists for GET (document
// listing), so a write answers 405 naming GET as the only method.
func TestDocsRoutesAbsentOnStaticIndex(t *testing.T) {
	corpus := testCorpus(t, 30)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	resp, err := http.Post(ts.URL+"/v1/docs", "application/json", strings.NewReader(`{"doc":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("static insert: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET" {
		t.Fatalf("static insert: Allow %q want %q", got, "GET")
	}
}

// TestMethodNotAllowed checks the wrong-method contract of every daemon
// kind through one body: on every registered path, each of GET, POST, PUT
// and DELETE that the path does not serve answers 405, an Allow header
// naming the supported methods in route-table order, and a JSON error
// body. The supported /healthz still answers, with the daemon's shape.
func TestMethodNotAllowed(t *testing.T) {
	corpus := testCorpus(t, 30)
	common := map[string]string{
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
	with := func(extra map[string]string) map[string]string {
		m := maps.Clone(common)
		maps.Copy(m, extra)
		return m
	}
	daemons := []struct {
		name   string
		url    func(t *testing.T) string
		allow  map[string]string // path -> Allow; {id} paths are probed as /7
		health map[string]any    // fields /healthz must carry
	}{
		{"static", func(t *testing.T) string {
			_, ts := newTestServer(t, corpus, 2, 2, Config{})
			return ts.URL
		}, with(map[string]string{"/v1/docs": "GET"}),
			map[string]any{"status": "ok", "mutable": false}},
		{"dynamic", func(t *testing.T) string {
			_, ts := newDynamicTestServer(t, corpus, 2, 2, Config{})
			return ts.URL
		}, with(map[string]string{"/v1/docs": "GET, POST", "/v1/docs/{id}": "GET, DELETE"}),
			map[string]any{"status": "ok", "mutable": true}},
		{"replica", func(t *testing.T) string {
			_, ts := newTestServer(t, corpus, 2, 2, Config{Replica: "http://primary.example:7401"})
			return ts.URL
		}, with(map[string]string{"/v1/docs": "GET, POST", "/v1/docs/{id}": "GET, DELETE"}),
			map[string]any{"status": "ok", "replica": true, "primary": "http://primary.example:7401"}},
		{"coordinator", func(t *testing.T) string {
			return newClusterHarness(t, 1, 2, cluster.Config{}).ts.URL
		}, with(map[string]string{"/v1/docs": "POST", "/v1/docs/{id}": "GET, DELETE", "/v1/cluster/rebalance": "POST"}),
			map[string]any{"status": "ok"}},
	}
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) {
			base := d.url(t)
			for path, allow := range d.allow {
				url := base + strings.Replace(path, "{id}", "7", 1)
				for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
					if slices.Contains(strings.Split(allow, ", "), method) {
						continue
					}
					code, gotAllow, body := rawDo(t, method, url, "{}")
					var e errorResponse
					decErr := json.Unmarshal(body, &e)
					if code != http.StatusMethodNotAllowed || gotAllow != allow || decErr != nil || e.Error == "" {
						t.Errorf("%s %s: status %d, Allow %q, body %s; want 405, Allow %q and a JSON error",
							method, path, code, gotAllow, body, allow)
					}
				}
			}
			// Supported methods are unaffected by the fallbacks.
			var h map[string]any
			if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
				t.Fatalf("health: status %d", code)
			}
			for k, want := range d.health {
				if h[k] != want {
					t.Errorf("health %s = %v, want %v (body %v)", k, h[k], want, h)
				}
			}
		})
	}
}

// TestConcurrentMutation hammers the write and read paths together; most
// valuable under -race.
func TestConcurrentMutation(t *testing.T) {
	corpus := testCorpus(t, 100)
	_, ts := newDynamicTestServer(t, corpus, 2, 2, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					var created DocResponse
					postJSON(t, ts.URL+"/v1/docs", map[string]string{"doc": fmt.Sprintf("doc-%d-%d", g, i)}, &created)
					if i%3 == 0 {
						req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/docs/%d", ts.URL, created.ID), nil)
						resp, err := http.DefaultClient.Do(req)
						if err == nil {
							resp.Body.Close()
						}
					}
				} else {
					var sr SearchResponse
					getJSON(t, ts.URL+"/v1/search?q="+urlQueryEscape(corpus[(g*31+i)%len(corpus)]), &sr)
				}
			}
		}(g)
	}
	wg.Wait()
}
