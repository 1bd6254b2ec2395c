package main

import (
	"net/http"

	"passjoin"
)

// Harness-side tracing of the serving stack. Nothing inside the program is
// instrumented: the index a server is built around is wrapped so the call
// into it becomes a span, and the server's handler is wrapped so the whole
// request does. Spans of one request are joined on its query string, which
// the query set keeps distinct.

// tracedStatic wraps the static index of a member-less server. Embedding
// keeps every other method of the searcher (Get, Len, Tau, NumShards, All,
// SearchSeq) reachable, so the server sees the same contracts.
type tracedStatic struct {
	*passjoin.ShardedSearcher
	rec *recorder
}

func (t tracedStatic) Search(q string, opts ...passjoin.QueryOption) []passjoin.Match {
	s := t.rec.now()
	ms := t.ShardedSearcher.Search(q, opts...)
	t.rec.add("index.search", s, t.rec.now(), "server.handler", q)
	return ms
}

// tracedDynamic wraps a cluster member's mutable index; the embedded
// searcher still provides Insert, Delete, Stats, Err, Apply, All and
// NextID, which is everything a member server and the coordinator ask of
// it.
type tracedDynamic struct {
	*passjoin.DynamicSearcher
	rec *recorder
}

func (t tracedDynamic) Search(q string, opts ...passjoin.QueryOption) []passjoin.Match {
	s := t.rec.now()
	ms := t.DynamicSearcher.Search(q, opts...)
	t.rec.add("index.search", s, t.rec.now(), "member.handler", q)
	return ms
}

// spanHandler records a span named name around every request next serves.
func spanHandler(rec *recorder, name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := rec.now()
		next.ServeHTTP(w, r)
		rec.add(name, s, rec.now(), parent, r.URL.Query().Get("q"))
	})
}
