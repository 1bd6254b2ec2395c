package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"passjoin/internal/dataset"
	"passjoin/internal/metrics"
	"passjoin/internal/obs"
	"passjoin/internal/selection"
)

func TestMatcherStats(t *testing.T) {
	st := &metrics.Stats{}
	m, err := NewMatcher(2, selection.MultiMatch, VerifyExtensionShared, st)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert("hello")
	m.Insert("hallo")
	m.Insert("x") // short string (len <= tau)
	if st.Strings != 3 || st.ShortStrings != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.Results != 1 {
		t.Errorf("results: %d", st.Results)
	}
}

func TestMatcherShortStringBothDirections(t *testing.T) {
	m, err := NewMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Short first, long later: the long probe must see the short string.
	if got := m.Insert("a"); len(got) != 0 {
		t.Fatalf("first: %v", got)
	}
	if got := m.Insert("abc"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("long-after-short: %v", got)
	}
	// Long first, short later: the short probe must see both earlier
	// strings ("b"~"a" at ed 1, "b"~"abc" at ed 2).
	if got := m.Insert("b"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("short-after: %v", got)
	}
}

func TestMatcherSnapshotConcurrencySafety(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	m, err := NewMatcher(1, selection.MultiMatch, VerifyExtensionShared, nil)
	if err != nil {
		t.Fatal(err)
	}
	var corpus []string
	for i := 0; i < 100; i++ {
		corpus = append(corpus, randStr(rng, 4+rng.Intn(8), 3))
		m.InsertSilent(corpus[i])
	}
	snap := m.Snapshot()
	for _, q := range corpus[:20] {
		a := m.Query(q)
		b := snap.Query(q)
		if len(a) != len(b) {
			t.Fatalf("snapshot disagrees on %q: %v vs %v", q, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("snapshot hit %d differs for %q", i, q)
			}
		}
	}
	if snap.Len() != m.Len() {
		t.Errorf("snapshot Len %d vs %d", snap.Len(), m.Len())
	}
}

func TestMatcherAllVerifyKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	strs := randomCorpus(rng, 120, 14, 3, 0.5, 2)
	tau := 2
	// Reference result from the default kind.
	var want int
	for _, vk := range VerifyKinds {
		m, err := NewMatcher(tau, selection.MultiMatch, vk, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range strs {
			total += len(m.Insert(s))
		}
		if vk == VerifyKinds[0] {
			want = total
		} else if total != want {
			t.Errorf("%v: %d matches, want %d", vk, total, want)
		}
	}
}

// manyHitsCorpus alternates two strings one edit apart, so a query for the
// first is answered by every string: the even ids from one posting list and
// the odd ids from another, two ascending runs that interleave.
func manyHitsCorpus(n int) []string {
	corpus := make([]string, n)
	for id := range corpus {
		corpus[id] = "aaaaaaaaaaaa" + "b"[:id%2]
	}
	return corpus
}

// TestManyHitsSorted: a query that every one of 60 000 strings answers
// returns them all, ascending by id, at their exact distances — and in time
// linear in their number (the insertion sort this replaced took 0.8 s here,
// four times that at twice the size; the bound leaves a slow machine room).
func TestManyHitsSorted(t *testing.T) {
	corpus := manyHitsCorpus(60000)
	m, err := BuildSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	hits := m.Query(corpus[0])
	ids := m.QueryIDs(corpus[0])
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("two queries with %d hits each took %v", len(corpus), d)
	}
	if len(hits) != len(corpus) || len(ids) != len(corpus) {
		t.Fatalf("%d hits and %d ids, want %d of each", len(hits), len(ids), len(corpus))
	}
	for id := range corpus {
		if want := (Hit{ID: int32(id), Dist: int32(id % 2)}); hits[id] != want || ids[id] != want.ID {
			t.Fatalf("position %d holds hit %+v and id %d, want %+v", id, hits[id], ids[id], want)
		}
	}
}

// TestQueryAllocs pins what one query allocates on a sealed matcher through
// every entry point, unlimited and capped: for a query with no hit, one with
// hits from the segment index and one answered by the strings too short to
// partition. QueryOpt and QueryIDs allocate their result, and nothing when
// it is empty; QuerySeq hands its consumer to the probe as is. It skips
// under the race detector, whose instrumentation allocates.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	corpus := append(dataset.Author(2000, 7),
		"zachariah quimby", "zachariah quimbey", "zachariah quimbly", "wilhelmina oxenford", "ab", "b")
	m, err := BuildSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q       string
		hits    int // unlimited
		results int // allocations of QueryOpt and QueryIDs
	}{
		{"qqqqqqq xxxxxxxx", 0, 0},
		{"wilhelmina oxenfrod", 1, 1},
		{"zachariah quimby", 3, 1},
		{"ab", 2, 1}, // "ab" and "b", both short
	} {
		for _, limit := range []int{0, 2} {
			o := QueryOpts{Tau: 2, Limit: limit}
			want := c.hits
			if limit > 0 {
				want = min(want, limit)
			}
			if got := len(m.QueryOpt(c.q, o)); got != want {
				t.Fatalf("QueryOpt(%q) limit %d: %d hits, want %d", c.q, limit, got, want)
			}
			type row struct {
				name   string
				allocs int
				run    func()
			}
			rows := []row{
				{"QueryOpt", c.results, func() { m.QueryOpt(c.q, o) }},
				{"QuerySeq", 0, func() { m.QuerySeq(c.q, o, func(Hit) bool { return true }) }},
			}
			if limit == 0 {
				rows = append(rows, row{"QueryIDs", c.results, func() { m.QueryIDs(c.q) }})
			}
			for _, r := range rows {
				if got := testing.AllocsPerRun(200, r.run); got > float64(r.allocs) {
					t.Errorf("%s(%q) limit %d, %d hits: %v allocs, want at most %d", r.name, c.q, limit, want, got, r.allocs)
				}
			}
		}
	}
}

// TestQueryHooksDoNotOutliveTheQuery runs three queries on one snapshot: a
// capped, traced QuerySeq whose consumer panics, a capped, traced QueryOpt,
// and a plain Query. Neither the dead consumer nor either cap or trace may
// reach a later query: the QueryOpt answers its cap, and the Query answers
// in full and records nothing in either trace.
func TestQueryHooksDoNotOutliveTheQuery(t *testing.T) {
	corpus, q := earlyStopCorpus()
	base, err := BuildSealedMatcher(4, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := base.Snapshot()
	full := bruteHits(corpus, q, 4)
	var seqTrace, optTrace obs.QueryTrace
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the consumer's panic did not reach the caller")
			}
		}()
		n := 0
		m.QuerySeq(q, QueryOpts{Tau: 4, Limit: 5, Trace: &seqTrace}, func(Hit) bool {
			if n++; n == 3 {
				panic("consumer bails")
			}
			return true
		})
	}()
	got := m.QueryOpt(q, QueryOpts{Tau: 4, Limit: 2, Trace: &optTrace})
	if len(got) != 2 {
		t.Fatalf("capped QueryOpt after a panicking QuerySeq: %v, want 2 hits", got)
	}
	for _, h := range got {
		if !slices.Contains(full, h) {
			t.Fatalf("capped QueryOpt answers %+v, not a hit of %v", h, full)
		}
	}
	if optTrace.Phase(obs.PhaseSelect).Count == 0 {
		t.Fatal("the traced QueryOpt recorded nothing")
	}
	seqAfter, optAfter := seqTrace, optTrace
	if got := m.Query(q); !slices.Equal(got, full) {
		t.Fatalf("Query after the capped queries answers %v, want %v", got, full)
	}
	if seqTrace != seqAfter || optTrace != optAfter {
		t.Fatal("the plain Query recorded into an earlier query's trace")
	}
}
