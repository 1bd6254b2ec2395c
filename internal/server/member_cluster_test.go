package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"testing"
)

// TestExplicitIDInsert drives the coordinator-facing write form: a POST
// /v1/docs body carrying an explicit id must land the document under
// exactly that id, idempotently, and advance the member's id allocator
// past it.
func TestExplicitIDInsert(t *testing.T) {
	_, ts := newDynamicTestServer(t, testCorpus(t, 10), 2, 2, Config{})

	id := 42
	var resp DocResponse
	if code := postJSON(t, ts.URL+"/v1/docs", DocRequest{ID: &id, Doc: strPtr("routed write")}, &resp); code != http.StatusCreated {
		t.Fatalf("explicit-id insert: status %d", code)
	}
	if resp.ID != 42 {
		t.Fatalf("explicit-id insert landed at id %d, want 42", resp.ID)
	}
	var doc DocResponse
	if code := getJSON(t, ts.URL+"/v1/docs/42", &doc); code != http.StatusOK || doc.Doc != "routed write" {
		t.Fatalf("fetch after explicit insert: %d %+v", code, doc)
	}
	// Idempotent: the same id again still answers 201 and changes nothing.
	if code := postJSON(t, ts.URL+"/v1/docs", DocRequest{ID: &id, Doc: strPtr("other text")}, &resp); code != http.StatusCreated {
		t.Fatalf("replayed explicit-id insert: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/docs/42", &doc); code != http.StatusOK || doc.Doc != "routed write" {
		t.Fatalf("replay overwrote the document: %d %+v", code, doc)
	}
	// The allocator advanced: a plain insert must not collide with 42.
	var plain DocResponse
	if code := postJSON(t, ts.URL+"/v1/docs", DocRequest{Doc: strPtr("local write")}, &plain); code != http.StatusCreated {
		t.Fatalf("plain insert: status %d", code)
	}
	if plain.ID != 43 {
		t.Fatalf("plain insert after explicit id 42 got id %d, want 43", plain.ID)
	}
	// Stats report the advanced allocator.
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.NextID != 44 {
		t.Fatalf("stats next_id = %d, want 44", st.NextID)
	}
	// Negative ids are rejected outright.
	neg := -1
	var e errorResponse
	if code := postJSON(t, ts.URL+"/v1/docs", DocRequest{ID: &neg, Doc: strPtr("x")}, &e); code != http.StatusBadRequest {
		t.Fatalf("negative explicit id: status %d", code)
	}
}

// TestExplicitIDBound pins the edge of the id space over HTTP: 2^62-1 is
// accepted, 2^62 answers 400 and is not stored.
func TestExplicitIDBound(t *testing.T) {
	_, ts := newDynamicTestServer(t, testCorpus(t, 10), 2, 2, Config{})
	edge, over := 1<<62-1, 1<<62
	var resp DocResponse
	if code := postJSON(t, ts.URL+"/v1/docs", DocRequest{ID: &edge, Doc: strPtr("edge")}, &resp); code != http.StatusCreated || resp.ID != edge {
		t.Fatalf("id 2^62-1: status %d, %+v", code, resp)
	}
	var e errorResponse
	if code := postJSON(t, ts.URL+"/v1/docs", DocRequest{ID: &over, Doc: strPtr("over")}, &e); code != http.StatusBadRequest {
		t.Fatalf("id 2^62: status %d, want 400", code)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || st.Strings != 11 {
		t.Fatalf("stats after the bound: %d, %d strings, want 11", code, st.Strings)
	}
}

// TestListDocs checks the NDJSON document listing on both index kinds:
// every live document exactly once, ids intact.
func TestListDocs(t *testing.T) {
	corpus := testCorpus(t, 25)
	check := func(t *testing.T, url string, wantLive map[int]string) {
		t.Helper()
		resp, err := http.Get(url + "/v1/docs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("list: content type %q", ct)
		}
		got := map[int]string{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var rec DocResponse
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad NDJSON record %q: %v", sc.Text(), err)
			}
			if _, dup := got[rec.ID]; dup {
				t.Fatalf("id %d listed twice", rec.ID)
			}
			got[rec.ID] = rec.Doc
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
		if len(got) != len(wantLive) {
			t.Fatalf("listed %d docs, want %d", len(got), len(wantLive))
		}
		for id, doc := range wantLive {
			if got[id] != doc {
				t.Fatalf("id %d: listed %q want %q", id, got[id], doc)
			}
		}
	}

	t.Run("static", func(t *testing.T) {
		_, ts := newTestServer(t, corpus, 2, 2, Config{})
		want := map[int]string{}
		for i, doc := range corpus {
			want[i] = doc
		}
		check(t, ts.URL, want)
	})
	t.Run("dynamic", func(t *testing.T) {
		_, ts := newDynamicTestServer(t, corpus, 2, 2, Config{})
		// Delete one doc; the listing must drop it.
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/docs/3", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete: status %d", resp.StatusCode)
		}
		want := map[int]string{}
		for i, doc := range corpus {
			if i != 3 {
				want[i] = doc
			}
		}
		check(t, ts.URL, want)
	})
}

func TestStaticStatsNextID(t *testing.T) {
	_, ts := newTestServer(t, testCorpus(t, 30), 2, 2, Config{})
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.NextID != 30 {
		t.Fatalf("static next_id = %d, want corpus size 30", st.NextID)
	}
}

func strPtr(s string) *string { return &s }
