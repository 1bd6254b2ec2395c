package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"passjoin"
	"passjoin/internal/dataset"
	"passjoin/internal/server"
)

// The decorators must keep the contracts the servers probe for: a wrapped
// dynamic index is still mutable, a wrapped static one still read-only.
var (
	_ server.MutableIndex = tracedDynamic{}
	_ server.Index        = tracedStatic{}
)

type exchange struct {
	method, path, body string
}

// memberExchanges exercises every member route a coordinator uses: search,
// explicit reads, local and routed writes, the bulk listing and next_id.
func memberExchanges(corpus []string) []exchange {
	q := url.QueryEscape(corpus[3])
	return []exchange{
		{"GET", "/v1/search?q=" + q, ""},
		{"GET", "/v1/search?q=" + q + "&k=1&tau=1", ""},
		{"GET", "/v1/topk?q=" + q + "&k=2", ""},
		{"POST", "/v1/batch", `{"queries":["` + corpus[5] + `","zzzz"]}`},
		{"POST", "/v1/docs", `{"doc":"` + corpus[3] + `x"}`},
		{"GET", "/v1/search?q=" + q, ""},
		{"GET", "/v1/docs/" + "3", ""},
		{"DELETE", "/v1/docs/3", ""},
		{"GET", "/v1/docs/3", ""},
		{"GET", "/v1/search?q=" + q, ""},
		{"GET", "/v1/docs", ""},
	}
}

func do(t *testing.T, h http.Handler, e exchange) (int, string) {
	t.Helper()
	req := httptest.NewRequest(e.method, e.path, strings.NewReader(e.body))
	if e.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

func TestDecoratedMemberAnswersIdentically(t *testing.T) {
	corpus := dataset.Author(400, 5)
	newMember := func(rec *recorder) http.Handler {
		ds, err := passjoin.NewDynamicSearcher(corpus, searchTau)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		if rec == nil {
			return server.New(ds, nil, serveConfig())
		}
		return spanHandler(rec, "member.handler", "coord.handler", server.New(tracedDynamic{ds, rec}, nil, serveConfig()))
	}
	rec := newRecorder()
	plain, wrapped := newMember(nil), newMember(rec)
	for _, e := range memberExchanges(corpus) {
		pc, pb := do(t, plain, e)
		wc, wb := do(t, wrapped, e)
		if pc != wc || pb != wb {
			t.Errorf("%s %s: plain %d %q, decorated %d %q", e.method, e.path, pc, pb, wc, wb)
		}
		if pc >= 500 || (pc >= 400 && !(e.method == "GET" && e.path == "/v1/docs/3")) {
			t.Errorf("%s %s: status %d — the route is missing or the exchange is wrong", e.method, e.path, pc)
		}
	}
	// next_id is how a coordinator learns a member's id floor.
	var ps, ws struct {
		NextID *int `json:"next_id"`
	}
	_, pb := do(t, plain, exchange{"GET", "/v1/stats", ""})
	_, wb := do(t, wrapped, exchange{"GET", "/v1/stats", ""})
	if err := json.Unmarshal([]byte(pb), &ps); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(wb), &ws); err != nil {
		t.Fatal(err)
	}
	if ps.NextID == nil || ws.NextID == nil {
		t.Fatalf("/v1/stats has no next_id: plain %s, decorated %s", pb, wb)
	}
	if *ps.NextID != *ws.NextID || *ps.NextID != len(corpus)+1 {
		t.Errorf("next_id: plain %d, decorated %d, want %d", *ps.NextID, *ws.NextID, len(corpus)+1)
	}

	handlers, searches := rec.named("member.handler"), rec.named("index.search")
	if len(handlers) != len(memberExchanges(corpus))+1 {
		t.Errorf("%d member.handler spans for %d requests", len(handlers), len(memberExchanges(corpus))+1)
	}
	if len(searches) == 0 || searches[0].Req != corpus[3] || searches[0].Parent != "member.handler" {
		t.Errorf("index.search spans: %+v", searches)
	}
}

func TestDecoratedStaticServerAnswersIdentically(t *testing.T) {
	corpus := dataset.Author(400, 5)
	ss, err := passjoin.NewShardedSearcher(corpus, searchTau)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	plain := server.New(ss, nil, serveConfig())
	wrapped := server.New(tracedStatic{ss, rec}, nil, serveConfig())
	for _, p := range searchPaths(makeQueries(corpus, 50, 5)) {
		pc, pb := do(t, plain, exchange{"GET", p, ""})
		wc, wb := do(t, wrapped, exchange{"GET", p, ""})
		if pc != http.StatusOK || pc != wc || pb != wb {
			t.Errorf("GET %s: plain %d %q, decorated %d %q", p, pc, pb, wc, wb)
		}
	}
	// A static index behind the decorator must not grow write routes.
	if code, _ := do(t, wrapped, exchange{"POST", "/v1/docs", `{"doc":"x"}`}); code != http.StatusMethodNotAllowed && code != http.StatusNotFound {
		t.Errorf("POST /v1/docs on a static server: status %d", code)
	}
	if len(rec.named("index.search")) != 50 {
		t.Errorf("%d index.search spans for 50 requests", len(rec.named("index.search")))
	}
}
