package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"passjoin"
	"passjoin/internal/cluster"
)

// memberNode is one real member daemon under a test coordinator: a
// volatile dynamic index behind the full Server handler set.
type memberNode struct {
	name string
	idx  *passjoin.DynamicSearcher
	ts   *httptest.Server
}

type clusterHarness struct {
	members []*memberNode
	cl      *cluster.Cluster
	co      *Coordinator
	ts      *httptest.Server // the coordinator's listener
}

// newClusterHarness stands up n member daemons and a coordinator over
// them, all in-process.
func newClusterHarness(t testing.TB, n, tau int, ccfg cluster.Config) *clusterHarness {
	t.Helper()
	h := &clusterHarness{}
	var ms []cluster.Member
	for i := 0; i < n; i++ {
		idx, err := passjoin.NewDynamicSearcher(nil, tau,
			passjoin.WithShards(2), passjoin.WithCompactThreshold(64))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
		ts := httptest.NewServer(New(idx, nil, Config{}))
		t.Cleanup(ts.Close)
		name := fmt.Sprintf("m%d", i)
		h.members = append(h.members, &memberNode{name: name, idx: idx, ts: ts})
		ms = append(ms, cluster.Member{Name: name, URL: ts.URL})
	}
	cl, err := cluster.New(ms, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	h.cl = cl
	h.co = NewCoordinator(cl, Config{})
	h.ts = httptest.NewServer(h.co)
	t.Cleanup(h.ts.Close)
	return h
}

func (h *clusterHarness) member(name string) *memberNode {
	for _, m := range h.members {
		if m.name == name {
			return m
		}
	}
	return nil
}

// seed places each (id, doc) on its rendezvous owner directly — the
// state routed writes would have built.
func (h *clusterHarness) seed(t testing.TB, corpus []string) {
	t.Helper()
	for id, doc := range corpus {
		owner := h.cl.Owner(id)
		if _, err := h.member(owner.Name).idx.Apply(passjoin.Mutation{ID: id, Doc: doc}); err != nil {
			t.Fatal(err)
		}
	}
}

// newUnionServer builds a single-node daemon over the same (id, doc)
// assignment — the byte-identity reference.
func newUnionServer(t testing.TB, corpus []string, tau int) *httptest.Server {
	t.Helper()
	idx, err := passjoin.NewDynamicSearcher(corpus, tau,
		passjoin.WithShards(2), passjoin.WithCompactThreshold(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(New(idx, nil, Config{}))
	t.Cleanup(ts.Close)
	return ts
}

func rawGet(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func rawPost(t testing.TB, url, contentType, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestCoordinatorByteIdentity is the cluster tier's core contract: for
// every read route, the coordinator's response over N members is
// byte-for-byte the single-node response over the union corpus.
func TestCoordinatorByteIdentity(t *testing.T) {
	corpus := testCorpus(t, 300)
	h := newClusterHarness(t, 3, 2, cluster.Config{})
	h.seed(t, corpus)
	union := newUnionServer(t, corpus, 2)

	queries := append([]string{}, corpus[:40]...)
	queries = append(queries, "zzzz-no-match-zzzz", corpus[7]+"x", corpus[100][1:])

	for _, q := range queries {
		for _, path := range []string{
			"/v1/search?q=" + urlQuery(q),
			"/v1/search?q=" + urlQuery(q) + "&k=3",
			"/v1/search?q=" + urlQuery(q) + "&tau=1",
			"/v1/topk?q=" + urlQuery(q) + "&k=5",
			"/v1/topk?q=" + urlQuery(q),
		} {
			wantCode, want := rawGet(t, union.URL+path)
			gotCode, got := rawGet(t, h.ts.URL+path)
			if gotCode != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("%s:\ncoordinator (%d): %s\nsingle-node (%d): %s", path, gotCode, got, wantCode, want)
			}
		}
	}

	// POST /v1/search, with and without per-request tau/k.
	for _, body := range []string{
		fmt.Sprintf(`{"query":%q}`, queries[3]),
		fmt.Sprintf(`{"query":%q,"k":2}`, queries[5]),
		fmt.Sprintf(`{"query":%q,"tau":1}`, queries[8]),
	} {
		wantCode, want := rawPost(t, union.URL+"/v1/search", "application/json", body)
		gotCode, got := rawPost(t, h.ts.URL+"/v1/search", "application/json", body)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("POST search %s:\ncoordinator (%d): %s\nsingle-node (%d): %s", body, gotCode, got, wantCode, want)
		}
	}

	// Batch: whole-corpus prefix, k-truncated and tau-overridden forms.
	batches := []string{
		mustJSON(t, BatchRequest{Queries: queries[:25]}),
		mustJSON(t, BatchRequest{Queries: queries[:25], K: 2}),
		`{"queries":["` + corpus[0] + `"],"tau":1}`,
	}
	for _, body := range batches {
		wantCode, want := rawPost(t, union.URL+"/v1/batch", "application/json", body)
		gotCode, got := rawPost(t, h.ts.URL+"/v1/batch", "application/json", body)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("batch:\ncoordinator (%d): %.200s\nsingle-node (%d): %.200s", gotCode, got, wantCode, want)
		}
	}

	// Client errors relay byte-identically too.
	for _, path := range []string{
		"/v1/search?q=x&tau=99",
		"/v1/search?q=x&k=-1",
		"/v1/topk?q=",
	} {
		wantCode, want := rawGet(t, union.URL+path)
		gotCode, got := rawGet(t, h.ts.URL+path)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("%s: coordinator (%d) %s vs single-node (%d) %s", path, gotCode, got, wantCode, want)
		}
	}
	// A write body over the size limit (413) or with an unknown field (400)
	// is refused in the same words; neither store changes.
	oversized := `{"doc":"` + strings.Repeat("a", defaultMaxBodyBytes+10-len(`{"doc":""}`)) + `"}`
	for name, body := range map[string]string{
		"oversized":     oversized,
		"unknown field": `{"doc":"x","bogus":1}`,
	} {
		wantCode, want := rawPost(t, union.URL+"/v1/docs", "application/json", body)
		gotCode, got := rawPost(t, h.ts.URL+"/v1/docs", "application/json", body)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("POST /v1/docs, %s body: coordinator (%d) %s vs single-node (%d) %s", name, gotCode, got, wantCode, want)
		}
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func urlQuery(q string) string {
	r := strings.NewReplacer(" ", "%20", "+", "%2B", "&", "%26", "#", "%23")
	return r.Replace(q)
}

// TestCoordinatorWriteRouting: routed writes allocate global ids and
// land each document on exactly its rendezvous owner; deletes reach
// everywhere.
func TestCoordinatorWriteRouting(t *testing.T) {
	h := newClusterHarness(t, 3, 2, cluster.Config{})
	corpus := testCorpus(t, 60)
	for i, doc := range corpus {
		var resp DocResponse
		code := postJSON(t, h.ts.URL+"/v1/docs", map[string]string{"doc": doc}, &resp)
		if code != http.StatusCreated {
			t.Fatalf("routed insert %d: status %d", i, code)
		}
		if resp.ID != i {
			t.Fatalf("routed insert %d allocated id %d", i, resp.ID)
		}
	}
	// Each document lives on exactly its owner.
	for id, doc := range corpus {
		owner := h.cl.Owner(id).Name
		for _, m := range h.members {
			got, ok := m.idx.Get(id)
			if m.name == owner {
				if !ok || got != doc {
					t.Fatalf("id %d missing from owner %s", id, owner)
				}
			} else if ok {
				t.Fatalf("id %d leaked onto non-owner %s", id, m.name)
			}
		}
	}
	// Coordinator reads see every document.
	var doc DocResponse
	if code := getJSON(t, h.ts.URL+"/v1/docs/17", &doc); code != http.StatusOK || doc.Doc != corpus[17] {
		t.Fatalf("coordinator get: %d %+v", code, doc)
	}
	// Delete reaches the owner (and would reach strays too).
	req, _ := http.NewRequest(http.MethodDelete, h.ts.URL+"/v1/docs/17", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr DocResponse
	json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !dr.Deleted {
		t.Fatalf("coordinator delete: %d %+v", resp.StatusCode, dr)
	}
	if _, ok := h.member(h.cl.Owner(17).Name).idx.Get(17); ok {
		t.Fatal("document 17 survived the cluster delete")
	}
	var e errorResponse
	if code := getJSON(t, h.ts.URL+"/v1/docs/17", &e); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}

// TestCoordinatorIDBootstrap: the global allocator starts past every id
// any member has already issued, and writes are gated until every member
// has contributed its floor.
func TestCoordinatorIDBootstrap(t *testing.T) {
	h := newClusterHarness(t, 3, 2, cluster.Config{BackoffMin: time.Hour})
	// One member already holds ids up to 99 from a standalone life.
	if _, err := h.members[1].idx.Apply(passjoin.Mutation{ID: 99, Doc: "preexisting"}); err != nil {
		t.Fatal(err)
	}
	var resp DocResponse
	if code := postJSON(t, h.ts.URL+"/v1/docs", map[string]string{"doc": "fresh"}, &resp); code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}
	if resp.ID != 100 {
		t.Fatalf("allocator issued id %d over a member holding 0..99", resp.ID)
	}

	// A cluster with an unreachable member must refuse writes rather than
	// risk re-issuing its ids.
	h2 := newClusterHarness(t, 3, 2, cluster.Config{BackoffMin: time.Hour})
	h2.members[2].ts.Close()
	var e errorResponse
	code := postJSON(t, h2.ts.URL+"/v1/docs", map[string]string{"doc": "x"}, &e)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write with unseeded unreachable member: status %d (%s)", code, e.Error)
	}
	if !strings.Contains(e.Error, "id space") {
		t.Fatalf("unhelpful gating error: %q", e.Error)
	}
}

// TestCoordinatorPartialSearch: a member down before the query turns the
// response into an explicit 206 partial, never a silent subset.
func TestCoordinatorPartialSearch(t *testing.T) {
	corpus := testCorpus(t, 120)
	h := newClusterHarness(t, 3, 2, cluster.Config{Timeout: 2 * time.Second, BackoffMin: time.Hour})
	h.seed(t, corpus)

	// Find a query whose answer lives on the member we kill.
	victim := h.members[2]
	var q string
	for id, doc := range corpus {
		if h.cl.Owner(id).Name == victim.name {
			q = doc
			break
		}
	}
	victim.ts.Close()

	resp, err := http.Get(h.ts.URL + "/v1/search?q=" + urlQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("search with a dead member: status %d body %s", resp.StatusCode, body)
	}
	var sr coordSearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || len(sr.Missing) != 1 || sr.Missing[0] != victim.name {
		t.Fatalf("partial markers wrong: %+v", sr)
	}
	if sr.Matches == nil {
		t.Fatal("matches must stay a non-nil slice on partial responses")
	}
	// Batch degrades the same way.
	var br coordBatchResponse
	code := postJSON(t, h.ts.URL+"/v1/batch", BatchRequest{Queries: corpus[:5]}, &br)
	if code != http.StatusPartialContent || !br.Partial || len(br.Missing) != 1 {
		t.Fatalf("batch with a dead member: %d %+v", code, br)
	}
	if len(br.Results) != 5 {
		t.Fatalf("batch results truncated: %d", len(br.Results))
	}
	// The health endpoint reports the degradation... once the breaker has
	// seen the failures (the searches above already drove it open).
	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
	}
	if code := getJSON(t, h.ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Status != "degraded" || hz.Healthy != 2 {
		t.Fatalf("healthz after member death: %+v", hz)
	}
	// And the metrics count the partials.
	_, metrics := rawGet(t, h.ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `passjoin_cluster_member_up{member="m2"} 0`) {
		t.Fatalf("member_up gauge missing the death:\n%.500s", metrics)
	}
	if !strings.Contains(string(metrics), "passjoin_cluster_partial_responses_total") {
		t.Fatal("partial responses counter absent")
	}
}

// TestCoordinatorSlowMember: a member blowing the per-member deadline is
// dropped from the result and reported missing, exactly like a dead one.
func TestCoordinatorSlowMember(t *testing.T) {
	corpus := testCorpus(t, 60)
	h := newClusterHarness(t, 2, 2, cluster.Config{Timeout: 150 * time.Millisecond, BackoffMin: time.Hour})
	h.seed(t, corpus)

	// Wedge member 1 behind a handler that stalls past the deadline.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	t.Cleanup(slow.Close)
	if err := h.cl.SetMembers([]cluster.Member{
		{Name: "m0", URL: h.members[0].ts.URL},
		{Name: "m1", URL: slow.URL},
	}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp, err := http.Get(h.ts.URL + "/v1/search?q=" + urlQuery(corpus[0]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("slow member: status %d body %s", resp.StatusCode, body)
	}
	var sr coordSearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || len(sr.Missing) != 1 || sr.Missing[0] != "m1" {
		t.Fatalf("slow member not reported missing: %+v", sr)
	}
	// Deadline + one retry, not the member's 2s stall.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("query blocked %v on a slow member with a 150ms deadline", elapsed)
	}
}

// TestCoordinatorMergeDedup: a document present on two members
// mid-rebalance counts once in coordinator results, keeping the smaller
// distance — over live HTTP, not just the merge unit.
func TestCoordinatorMergeDedup(t *testing.T) {
	h := newClusterHarness(t, 2, 2, cluster.Config{})
	// Same id on both members (the transient rebalance state).
	if _, err := h.members[0].idx.Apply(passjoin.Mutation{ID: 5, Doc: "vldb"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.members[1].idx.Apply(passjoin.Mutation{ID: 5, Doc: "vldb"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.members[0].idx.Apply(passjoin.Mutation{ID: 9, Doc: "vldbx"}); err != nil {
		t.Fatal(err)
	}
	var sr coordSearchResponse
	if code := getJSON(t, h.ts.URL+"/v1/search?q=vldb", &sr); code != http.StatusOK {
		t.Fatalf("search: %d", code)
	}
	want := []cluster.Hit{{ID: 5, String: "vldb", Dist: 0}, {ID: 9, String: "vldbx", Dist: 1}}
	if len(sr.Matches) != len(want) {
		t.Fatalf("doubled document not deduplicated: %+v", sr.Matches)
	}
	for i, m := range sr.Matches {
		if m != want[i] {
			t.Fatalf("match %d: %+v want %+v", i, m, want[i])
		}
	}
	// k=1 must keep the id-5 hit, not let the duplicate crowd it out.
	if code := getJSON(t, h.ts.URL+"/v1/topk?q=vldb&k=1", &sr); code != http.StatusOK {
		t.Fatalf("topk: %d", code)
	}
	if len(sr.Matches) != 1 || sr.Matches[0].ID != 5 {
		t.Fatalf("topk over duplicate: %+v", sr.Matches)
	}
}

// MaxBatch caps the queries of one batch and nothing else: it used to be
// passed to every scatter as its concurrency bound, so -max-batch 1 made a
// search visit the members one after another. Each member here holds its
// search until all of them have been asked, which only a scatter that
// calls every member at once survives.
func TestCoordinatorMaxBatchCapsOnlyBatches(t *testing.T) {
	const n = 3
	var asked atomic.Int32
	all := make(chan struct{})
	var ms []cluster.Member
	for i := 0; i < n; i++ {
		idx, err := passjoin.NewDynamicSearcher(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
		if _, err := idx.Apply(passjoin.Mutation{ID: i, Doc: "vldb"}); err != nil {
			t.Fatal(err)
		}
		member := New(idx, nil, Config{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/search" {
				if asked.Add(1) == n {
					close(all)
				}
				select {
				case <-all:
				case <-r.Context().Done(): // the coordinator gave up on this member
				}
			}
			member.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		ms = append(ms, cluster.Member{Name: fmt.Sprintf("m%d", i), URL: ts.URL})
	}
	cl, err := cluster.New(ms, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewCoordinator(cl, Config{MaxBatch: 1}))
	t.Cleanup(ts.Close)

	var sr coordSearchResponse
	if code := getJSON(t, ts.URL+"/v1/search?q=vldb", &sr); code != http.StatusOK {
		t.Fatalf("search: status %d, missing %v", code, sr.Missing)
	}
	if len(sr.Matches) != n {
		t.Fatalf("search reached %d of %d members: %+v", len(sr.Matches), n, sr.Matches)
	}
	if code, body := rawPost(t, ts.URL+"/v1/batch", "application/json", `{"queries":["vldb"]}`); code != http.StatusOK {
		t.Fatalf("one-query batch: %d %s", code, body)
	}
	if code, body := rawPost(t, ts.URL+"/v1/batch", "application/json", `{"queries":["vldb","pvldb"]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("two-query batch: %d %s, want 413", code, body)
	}
}

type joinRec struct {
	R       int      `json:"r"`
	S       int      `json:"s"`
	Left    string   `json:"left"`
	Right   string   `json:"right"`
	Dist    int      `json:"dist"`
	Partial bool     `json:"partial"`
	Missing []string `json:"missing"`
}

func readJoinStream(t testing.TB, resp *http.Response) (pairs []joinRec, terminal *joinRec) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec joinRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad join record %q: %v", sc.Text(), err)
		}
		if rec.Partial {
			r := rec
			terminal = &r
			continue
		}
		pairs = append(pairs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs, terminal
}

func joinPairKey(p joinRec) string {
	return fmt.Sprintf("%d|%d|%s|%s|%d", p.R, p.S, p.Left, p.Right, p.Dist)
}

// TestCoordinatorJoinSelf: the distributed self join over 3 members
// produces exactly the single-node pair set, globally renumbered.
func TestCoordinatorJoinSelf(t *testing.T) {
	corpus := testCorpus(t, 150)
	h := newClusterHarness(t, 3, 2, cluster.Config{})
	h.seed(t, corpus) // members need indexes only for health; joins are stateless
	union := newUnionServer(t, corpus, 2)
	body := strings.Join(corpus, "\n") + "\n"

	wantResp, err := http.Post(union.URL+"/v1/join/self?tau=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, _ := readJoinStream(t, wantResp)
	gotResp, err := http.Post(h.ts.URL+"/v1/join/self?tau=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", gotResp.StatusCode)
	}
	gotPairs, terminal := readJoinStream(t, gotResp)
	if terminal != nil {
		t.Fatalf("healthy join emitted a partial record: %+v", terminal)
	}
	comparePairSets(t, gotPairs, wantPairs)

	// R×S: first half against second half.
	rs := strings.Join(corpus[:75], "\n") + "\n\n" + strings.Join(corpus[75:], "\n") + "\n"
	wantResp, err = http.Post(union.URL+"/v1/join?tau=1", "text/plain", strings.NewReader(rs))
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, _ = readJoinStream(t, wantResp)
	gotResp, err = http.Post(h.ts.URL+"/v1/join?tau=1", "text/plain", strings.NewReader(rs))
	if err != nil {
		t.Fatal(err)
	}
	gotPairs, terminal = readJoinStream(t, gotResp)
	if terminal != nil {
		t.Fatalf("healthy RS join emitted a partial record: %+v", terminal)
	}
	comparePairSets(t, gotPairs, wantPairs)
}

func comparePairSets(t testing.TB, got, want []joinRec) {
	t.Helper()
	gm := map[string]int{}
	for _, p := range got {
		gm[joinPairKey(p)]++
		if gm[joinPairKey(p)] > 1 {
			t.Fatalf("pair emitted twice: %+v", p)
		}
	}
	wm := map[string]bool{}
	for _, p := range want {
		wm[joinPairKey(p)] = true
	}
	for k := range gm {
		if !wm[k] {
			t.Fatalf("extra pair %s", k)
		}
	}
	for k := range wm {
		if gm[k] == 0 {
			t.Fatalf("missing pair %s (got %d of %d)", k, len(got), len(want))
		}
	}
}

// TestCoordinatorJoinMemberDiesMidStream: a member that emits part of a
// task and dies must surface as a terminal partial record with no
// duplicated pairs — never a silently truncated stream.
func TestCoordinatorJoinMemberDiesMidStream(t *testing.T) {
	corpus := testCorpus(t, 90)
	h := newClusterHarness(t, 2, 2, cluster.Config{Timeout: 2 * time.Second, BackoffMin: time.Hour})
	h.seed(t, corpus)

	// Replace member 1 with a saboteur that streams two valid records,
	// flushes, then drops the connection.
	sabotage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(JoinPair{R: 0, S: 1, Left: "a", Right: "b", Dist: 1})
		enc.Encode(JoinPair{R: 0, S: 2, Left: "a", Right: "c", Dist: 1})
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(sabotage.Close)
	if err := h.cl.SetMembers([]cluster.Member{
		{Name: "m0", URL: h.members[0].ts.URL},
		{Name: "m1", URL: sabotage.URL},
	}); err != nil {
		t.Fatal(err)
	}

	body := strings.Join(corpus, "\n") + "\n"
	resp, err := http.Post(h.ts.URL+"/v1/join/self?tau=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	pairs, terminal := readJoinStream(t, resp)
	if terminal == nil {
		t.Fatal("mid-stream member death produced no terminal partial record")
	}
	if len(terminal.Missing) == 0 || !contains(terminal.Missing, "m1") {
		t.Fatalf("terminal record missing the dead member: %+v", terminal)
	}
	seen := map[string]bool{}
	for _, p := range pairs {
		if seen[joinPairKey(p)] {
			t.Fatalf("pair duplicated across the failure: %+v", p)
		}
		seen[joinPairKey(p)] = true
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestCoordinatorJoinBlankLineFallback: corpora with empty lines cannot
// be chunked (a blank would corrupt the RS section encoding), so the
// join falls back to a single-member proxy and still matches the
// single-node answer.
func TestCoordinatorJoinBlankLineFallback(t *testing.T) {
	corpus := []string{"alpha", "", "alphb", "beta", ""}
	h := newClusterHarness(t, 2, 1, cluster.Config{})
	union := newUnionServer(t, nil, 1)
	body := strings.Join(corpus, "\n") + "\n"
	wantResp, err := http.Post(union.URL+"/v1/join/self", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, _ := readJoinStream(t, wantResp)
	gotResp, err := http.Post(h.ts.URL+"/v1/join/self", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	gotPairs, terminal := readJoinStream(t, gotResp)
	if terminal != nil {
		t.Fatalf("fallback emitted a partial record: %+v", terminal)
	}
	// The proxied response needs no renumbering, so even R/S indices must
	// match the single node exactly.
	sort.Slice(gotPairs, func(i, j int) bool { return joinPairKey(gotPairs[i]) < joinPairKey(gotPairs[j]) })
	sort.Slice(wantPairs, func(i, j int) bool { return joinPairKey(wantPairs[i]) < joinPairKey(wantPairs[j]) })
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("fallback pair count %d want %d", len(gotPairs), len(wantPairs))
	}
	for i := range gotPairs {
		if joinPairKey(gotPairs[i]) != joinPairKey(wantPairs[i]) {
			t.Fatalf("fallback pair %d: %+v want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
}

// TestCoordinatorDedupProxy: the dedup stream proxies to one member and
// matches the single-node stream byte-for-byte.
func TestCoordinatorDedupProxy(t *testing.T) {
	corpus := testCorpus(t, 80)
	h := newClusterHarness(t, 2, 2, cluster.Config{})
	h.seed(t, corpus)
	union := newUnionServer(t, corpus, 2)
	body := strings.Join(corpus[:40], "\n") + "\n"
	wantCode, want := rawPost(t, union.URL+"/v1/dedup?tau=1", "text/plain", body)
	gotCode, got := rawPost(t, h.ts.URL+"/v1/dedup?tau=1", "text/plain", body)
	if gotCode != wantCode || !bytes.Equal(got, want) {
		t.Fatalf("dedup proxy diverged: %d vs %d\n%.200s\n%.200s", gotCode, wantCode, got, want)
	}
}

// TestCoordinatorRebalance: documents seeded on the wrong members move
// to their ring owners, search results are identical before and after,
// and the transient double-presence never surfaces.
func TestCoordinatorRebalance(t *testing.T) {
	corpus := testCorpus(t, 90)
	h := newClusterHarness(t, 3, 2, cluster.Config{})
	// Misplace everything: round-robin, ignoring ownership.
	for id, doc := range corpus {
		m := h.members[id%len(h.members)]
		if _, err := m.idx.Apply(passjoin.Mutation{ID: id, Doc: doc}); err != nil {
			t.Fatal(err)
		}
	}
	_, before := rawGet(t, h.ts.URL+"/v1/search?q="+urlQuery(corpus[0]))

	var rr RebalanceResponse
	if code := postJSON(t, h.ts.URL+"/v1/cluster/rebalance", struct{}{}, &rr); code != http.StatusOK {
		t.Fatalf("rebalance: status %d", code)
	}
	if rr.Scanned < len(corpus) {
		t.Fatalf("rebalance scanned %d of %d", rr.Scanned, len(corpus))
	}
	// Everything now lives on exactly its owner.
	for id, doc := range corpus {
		owner := h.cl.Owner(id).Name
		for _, m := range h.members {
			got, ok := m.idx.Get(id)
			if m.name == owner && (!ok || got != doc) {
				t.Fatalf("id %d not on owner %s after rebalance", id, owner)
			}
			if m.name != owner && ok {
				t.Fatalf("id %d still on %s after rebalance (owner %s)", id, m.name, owner)
			}
		}
	}
	_, after := rawGet(t, h.ts.URL+"/v1/search?q="+urlQuery(corpus[0]))
	if !bytes.Equal(before, after) {
		t.Fatalf("rebalance changed results:\nbefore %s\nafter  %s", before, after)
	}
	// A second pass is a no-op.
	if code := postJSON(t, h.ts.URL+"/v1/cluster/rebalance", struct{}{}, &rr); code != http.StatusOK || rr.Moved != 0 {
		t.Fatalf("second rebalance: %d %+v", code, rr)
	}
}

// TestCoordinatorBreakerRecovery drives the breaker cycle over live
// HTTP: member dies, queries degrade to partial, member revives, a probe
// closes the breaker and full responses resume.
func TestCoordinatorBreakerRecovery(t *testing.T) {
	corpus := testCorpus(t, 60)
	h := newClusterHarness(t, 2, 2, cluster.Config{
		Timeout: time.Second, BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	h.seed(t, corpus)

	// A proxy in front of member 1 we can wedge and revive.
	var down atomic.Bool
	target := h.members[1].ts.URL
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), r.Body)
		if err != nil {
			w.WriteHeader(500)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			w.WriteHeader(502)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	if err := h.cl.SetMembers([]cluster.Member{
		{Name: "m0", URL: h.members[0].ts.URL},
		{Name: "m1", URL: proxy.URL},
	}); err != nil {
		t.Fatal(err)
	}

	query := func() int {
		resp, err := http.Get(h.ts.URL + "/v1/search?q=" + urlQuery(corpus[0]))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := query(); code != http.StatusOK {
		t.Fatalf("healthy query: %d", code)
	}
	down.Store(true)
	if code := query(); code != http.StatusPartialContent {
		t.Fatalf("query with wedged member: %d", code)
	}
	// Revive; the next probe (breaker backoff is milliseconds) closes the
	// breaker and responses return to full.
	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(5 * time.Millisecond)
		h.cl.Probe(t.Context(), "m1")
		if code := query(); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("responses never recovered after the member revived")
		}
	}
}

// BenchmarkClusterScatterGather measures a coordinator search over 1, 2
// and 4 in-process members.
func BenchmarkClusterScatterGather(b *testing.B) {
	corpus := testCorpus(b, 2000)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			h := newClusterHarness(b, n, 2, cluster.Config{})
			h.seed(b, corpus)
			client := h.ts.Client()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(h.ts.URL + "/v1/search?q=" + urlQuery(corpus[i%len(corpus)]))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}
