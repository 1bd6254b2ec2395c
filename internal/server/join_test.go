package server

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"passjoin"
)

func postLines(t *testing.T, url, body string) (*http.Response, func()) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, func() { resp.Body.Close() }
}

func decodeJoinStream(t *testing.T, resp *http.Response) []PairRecord {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var out []PairRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var p PairRecord
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

type pairKey struct{ R, S int }

// The acceptance criterion: /v1/join/self streams the exact pair set that
// the in-process SelfJoin returns on the same corpus.
func TestJoinSelfStreamsExactPairSet(t *testing.T) {
	corpus := testCorpus(t, 400)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	want, err := passjoin.SelfJoin(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		resp, closeBody := postLines(t,
			fmt.Sprintf("%s/v1/join/self?parallel=%d", ts.URL, parallel),
			strings.Join(corpus, "\n"))
		got := decodeJoinStream(t, resp)
		closeBody()
		if len(got) != len(want) {
			t.Fatalf("parallel=%d: streamed %d pairs, want %d", parallel, len(got), len(want))
		}
		set := make(map[pairKey]PairRecord, len(got))
		for _, p := range got {
			set[pairKey{p.R, p.S}] = p
		}
		if len(set) != len(want) {
			t.Fatalf("parallel=%d: duplicate pairs in stream", parallel)
		}
		for _, w := range want {
			p, ok := set[pairKey{w.R, w.S}]
			if !ok {
				t.Fatalf("parallel=%d: missing pair (%d,%d)", parallel, w.R, w.S)
			}
			if p.Left != corpus[w.R] || p.Right != corpus[w.S] {
				t.Fatalf("pair (%d,%d): strings %q/%q", w.R, w.S, p.Left, p.Right)
			}
			if p.Dist != passjoin.EditDistance(p.Left, p.Right) || p.Dist > 2 {
				t.Fatalf("pair (%d,%d): dist %d", w.R, w.S, p.Dist)
			}
		}
	}
}

func TestJoinRSStreamsExactPairSet(t *testing.T) {
	corpus := testCorpus(t, 300)
	rset, sset := corpus[:140], corpus[140:]
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	want, err := passjoin.Join(rset, sset, 2)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Join(rset, "\n") + "\n\n" + strings.Join(sset, "\n")
	resp, closeBody := postLines(t, ts.URL+"/v1/join?parallel=3", body)
	got := decodeJoinStream(t, resp)
	closeBody()
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(got), len(want))
	}
	set := make(map[pairKey]bool, len(got))
	for _, p := range got {
		if p.Left != rset[p.R] || p.Right != sset[p.S] {
			t.Fatalf("pair (%d,%d): strings %q/%q", p.R, p.S, p.Left, p.Right)
		}
		set[pairKey{p.R, p.S}] = true
	}
	for _, w := range want {
		if !set[pairKey{w.R, w.S}] {
			t.Fatalf("missing pair (%d,%d)", w.R, w.S)
		}
	}
}

// A ?tau= override must apply to the join, not the index threshold.
func TestJoinTauOverride(t *testing.T) {
	corpus := []string{"kaushik", "kaushik!", "totally-different"}
	_, ts := newTestServer(t, corpus, 0, 1, Config{})
	resp, closeBody := postLines(t, ts.URL+"/v1/join/self?tau=1", strings.Join(corpus, "\n"))
	defer closeBody()
	got := decodeJoinStream(t, resp)
	if len(got) != 1 || got[0].R != 0 || got[0].S != 1 || got[0].Dist != 1 {
		t.Fatalf("got %v, want the single (0,1) pair at dist 1", got)
	}
}

func TestJoinStatsCounters(t *testing.T) {
	corpus := []string{"abc", "abd", "xyz"}
	_, ts := newTestServer(t, corpus, 1, 1, Config{})
	resp, closeBody := postLines(t, ts.URL+"/v1/join/self", strings.Join(corpus, "\n"))
	pairs := decodeJoinStream(t, resp)
	closeBody()
	if len(pairs) != 1 {
		t.Fatalf("pairs: %v", pairs)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Joins != 1 || st.JoinPairs != 1 {
		t.Fatalf("joins=%d join_pairs=%d, want 1/1", st.Joins, st.JoinPairs)
	}
}

func TestJoinZeroPairsStillNDJSON(t *testing.T) {
	corpus := []string{"aaaaaaa", "bbbbbbb"}
	_, ts := newTestServer(t, corpus, 1, 1, Config{})
	resp, closeBody := postLines(t, ts.URL+"/v1/join/self", strings.Join(corpus, "\n"))
	defer closeBody()
	if got := decodeJoinStream(t, resp); len(got) != 0 {
		t.Fatalf("got %v, want none", got)
	}
}

func TestJoinBadRequests(t *testing.T) {
	corpus := testCorpus(t, 20)
	_, ts := newTestServer(t, corpus, 2, 1, Config{})
	cases := []struct {
		name, url, body string
		wantStatus      int
	}{
		{"negative tau", "/v1/join/self?tau=-1", "a\nb", http.StatusBadRequest},
		{"bad tau", "/v1/join/self?tau=x", "a\nb", http.StatusBadRequest},
		// An unchecked huge tau is a memory bomb (the engine allocates
		// O(tau)-sized structures) and MaxInt64 overflows tau+1: both must
		// be rejected up front, not crash the process.
		{"huge tau", "/v1/join/self?tau=1000000000000", "abc\nabd", http.StatusBadRequest},
		{"overflow tau", "/v1/join/self?tau=9223372036854775807", "abc\nabd", http.StatusBadRequest},
		{"negative parallel", "/v1/join/self?parallel=-2", "a\nb", http.StatusBadRequest},
		{"missing separator", "/v1/join", "a\nb\nc", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, closeBody := postLines(t, ts.URL+c.url, c.body)
		var e errorResponse
		err := json.NewDecoder(resp.Body).Decode(&e)
		closeBody()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantStatus)
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s: missing structured error (err %v)", c.name, err)
		}
	}
}

// The three upload routes share one ?tau= validator; this is it at its
// bound. /v1/dedup used to skip the upper bound, and MaxInt64 there
// overflowed tau+1 into a makeslice panic that dropped the connection.
func TestUploadTauBound(t *testing.T) {
	_, ts := newTestServer(t, testCorpus(t, 20), 2, 1, Config{})
	routes := []struct{ path, body string }{
		{"/v1/dedup", "abc\nabd"},
		{"/v1/join/self", "abc\nabd"},
		{"/v1/join", "abc\n\nabd"},
	}
	taus := []struct {
		tau        int
		wantStatus int
	}{
		{maxJoinTau, http.StatusOK},
		{maxJoinTau + 1, http.StatusBadRequest},
		{math.MaxInt, http.StatusBadRequest},
		{-1, http.StatusBadRequest},
	}
	for _, rt := range routes {
		for _, c := range taus {
			resp, closeBody := postLines(t, fmt.Sprintf("%s%s?tau=%d", ts.URL, rt.path, c.tau), rt.body)
			body, err := io.ReadAll(resp.Body)
			closeBody()
			if err != nil {
				t.Fatalf("%s tau=%d: %v", rt.path, c.tau, err)
			}
			if resp.StatusCode != c.wantStatus {
				t.Errorf("%s tau=%d: status %d, want %d (%s)", rt.path, c.tau, resp.StatusCode, c.wantStatus, body)
				continue
			}
			var rec struct {
				Error string `json:"error"`
				Dist  *int   `json:"dist"`
			}
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Errorf("%s tau=%d: body %q: %v", rt.path, c.tau, body, err)
			} else if c.wantStatus == http.StatusOK && rec.Dist == nil {
				t.Errorf("%s tau=%d: no pair record in %q", rt.path, c.tau, body)
			} else if c.wantStatus != http.StatusOK && rec.Error == "" {
				t.Errorf("%s tau=%d: no structured error in %q", rt.path, c.tau, body)
			}
		}
	}
}

// ?engine= is not a parameter any more (every engine is exact, so it only
// ever changed the cost): any value — a registry name, the old "auto", a
// name that never existed — streams the pairs of a request without it, no
// X-Join-Engine header comes back, and /v1/stats has no per-engine key.
func TestJoinEngineSelectionStreamsSamePairs(t *testing.T) {
	corpus := testCorpus(t, 300)
	_, ts := newTestServer(t, corpus, 2, 2, Config{})
	checkEngineParamIgnored(t, ts.URL+"/v1/join/self", strings.Join(corpus, "\n"))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["joins_by_engine"]; ok {
		t.Errorf("/v1/stats still carries joins_by_engine: %s", stats["joins_by_engine"])
	}
	if string(stats["joins"]) != "4" {
		t.Errorf("joins = %s, want 4", stats["joins"])
	}
}

// The same contract on the two-set route.
func TestJoinRSEngineSelection(t *testing.T) {
	corpus := testCorpus(t, 200)
	_, ts := newTestServer(t, corpus, 2, 1, Config{})
	checkEngineParamIgnored(t, ts.URL+"/v1/join",
		strings.Join(corpus[:120], "\n")+"\n\n"+strings.Join(corpus[120:], "\n"))
}

func checkEngineParamIgnored(t *testing.T, url, body string) {
	t.Helper()
	var want []PairRecord
	for _, query := range []string{"", "?engine=edjoin", "?engine=auto", "?engine=bogus"} {
		resp, closeBody := postLines(t, url+query, body)
		got := decodeJoinStream(t, resp)
		closeBody()
		if h, ok := resp.Header["X-Join-Engine"]; ok {
			t.Errorf("%s: X-Join-Engine header %q", query, h)
		}
		slices.SortFunc(got, func(a, b PairRecord) int { return cmp.Or(a.R-b.R, a.S-b.S) })
		if query == "" {
			if want = got; len(want) == 0 {
				t.Fatal("no pairs to compare")
			}
		} else if !slices.Equal(got, want) {
			t.Errorf("%s: %d pairs differ from the %d of a request without it", query, len(got), len(want))
		}
	}
}

func TestJoinBodyTooLarge(t *testing.T) {
	corpus := testCorpus(t, 20)
	_, ts := newTestServer(t, corpus, 2, 1, Config{MaxJoinBytes: 64})
	resp, closeBody := postLines(t, ts.URL+"/v1/join/self", strings.Repeat("abcdefgh\n", 64))
	defer closeBody()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// The second acceptance criterion: a dropped client connection cancels
// the underlying join workers. The corpus below is dense (every string
// within tau of the shared base), so the full join emits ~n²/2 pairs and
// takes far longer than the bound; the handler must exit almost
// immediately once the client goes away.
func TestJoinClientDisconnectCancelsWorkers(t *testing.T) {
	base := strings.Repeat("kaushik chakrabarti ", 3)
	corpus := make([]string, 3000)
	for i := range corpus {
		b := []byte(base)
		b[i%len(b)] = byte('a' + i%4)
		corpus[i] = string(b)
	}
	// At 1 and 2 the join runs on the caller and one helper, at 4 on up to
	// GOMAXPROCS workers: a dropped client stops each.
	for _, parallel := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			joinUntilDisconnect(t, corpus, parallel)
		})
	}
}

// joinUntilDisconnect posts corpus to a self join at the given parallelism,
// reads one pair, drops the connection, and fails t unless the handler
// returns promptly without counting the join as completed.
func joinUntilDisconnect(t *testing.T, corpus []string, parallel int) {
	srv, _ := newTestServer(t, corpus[:10], 2, 1, Config{})
	handlerDone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.URL.Path == "/v1/join/self" {
			close(handlerDone)
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+fmt.Sprintf("/v1/join/self?tau=3&parallel=%d", parallel), strings.NewReader(strings.Join(corpus, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one streamed pair to be sure the join is underway, then drop
	// the connection.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first pair: %v", err)
	}
	cancel()
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("join handler still running 10s after client disconnect")
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Joins != 0 {
		t.Fatalf("cancelled join was counted as completed (joins=%d)", st.Joins)
	}
}
