package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/obs"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// Matcher is the online variant of the join: strings are inserted in any
// order, and each insertion reports the previously inserted strings within
// the threshold. It is the paper's framework without the sorted scan — the
// index keeps every length group live and probes lengths on both sides of
// the current string, which the selection windows already support (Δ may be
// negative).
//
// A Matcher is one of two kinds for its whole life. A mutable one
// (NewMatcher) supports interleaved Insert and Query against the map-based
// build index. A sealed one (BuildSealedMatcher) is built over a corpus known
// up front and probes its frozen index (index.Frozen): queries get the
// read-optimized probe path and snapshots share one arena, and insertion
// panics.
//
// Matcher powers streaming deduplication workloads (mutable: feed records as
// they arrive, react to near-duplicates immediately) and static search
// serving (sealed).
//
// Queries (Query, QueryOpt, QuerySeq, QueryIDs) may run concurrently with
// each other, but never with Insert or InsertSilent: each query takes its
// scratch from the matcher's pool of probers. A stats sink is plain
// counters, so only a matcher without one (see Snapshot) is safe for
// concurrent queries.
type Matcher struct {
	tau int
	sel selection.Method
	vk  VerifyKind
	// probers pools the query scratch (*prober: verifier rows, lookup
	// batch, dedup stamps). A query takes one in arm and returns it in
	// release; one made when the pool is empty counts into st.
	probers sync.Pool
	idx     *index.Index  // build index; nil when sealed
	fz      *index.Frozen // frozen index; nil when mutable
	strs    []string
	// sigs holds verify.SigOf of every inserted string, parallel to strs
	// and shared with every Snapshot like strs is.
	sigs []uint64
	// shorts lists inserted strings with length <= tau, which bypass the
	// segment index.
	shorts []int32
	st     *metrics.Stats
}

// Hit is one query result: the id of an indexed string and its exact edit
// distance from the query (always <= tau).
type Hit struct {
	ID   int32
	Dist int32
}

// NewMatcher creates an online matcher for threshold tau.
func NewMatcher(tau int, sel selection.Method, vk VerifyKind, st *metrics.Stats) (*Matcher, error) {
	if tau < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", tau)
	}
	return &Matcher{tau: tau, sel: sel, vk: vk, idx: index.New(tau), st: st}, nil
}

// NewSealedMatcher creates a sealed matcher over corpus from fz, its frozen
// index (fz.Tau() == tau, built over this very slice). It is the second half
// of BuildSealedMatcher, which is what the program calls; it stays exported
// because bench/, which a change to the program may not edit, hands it an
// index it has timed the build of (ROADMAP item 1 retargets that rung).
func NewSealedMatcher(tau int, sel selection.Method, vk VerifyKind, st *metrics.Stats, corpus []string, fz *index.Frozen) (*Matcher, error) {
	if tau < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", tau)
	}
	if fz == nil {
		return nil, fmt.Errorf("core: nil frozen index")
	}
	if fz.Tau() != tau {
		return nil, fmt.Errorf("core: frozen index built for tau=%d, want %d", fz.Tau(), tau)
	}
	m := &Matcher{
		tau:  tau,
		sel:  sel,
		vk:   vk,
		fz:   fz,
		strs: corpus,
		sigs: make([]uint64, len(corpus)),
		st:   st,
	}
	verify.Sigs(m.sigs, corpus)
	for id, s := range corpus {
		if len(s) <= tau { // not "< tau+1", which wraps at MaxInt
			m.shorts = append(m.shorts, int32(id))
		}
	}
	if st != nil {
		st.Strings = int64(len(corpus))
		st.ShortStrings = int64(len(m.shorts))
		st.FrozenBytes = fz.Bytes()
		st.FrozenEntries = fz.Entries()
	}
	return m, nil
}

// BuildSealedMatcher creates a sealed matcher over a complete corpus,
// bulk-building its frozen index with the given number of workers (see
// index.BuildFrozen) — the static searchers' build path. corpus becomes
// the matcher's backing slice and must not be modified afterwards. st, when
// non-nil, also receives the build index's modeled footprint
// (IndexBytes/IndexEntries), as if the map index had been built.
func BuildSealedMatcher(tau int, sel selection.Method, vk VerifyKind, st *metrics.Stats, corpus []string, workers int) (*Matcher, error) {
	fz, err := index.BuildFrozen(corpus, tau, workers)
	if err != nil {
		return nil, fmt.Errorf("core: building index: %w", err)
	}
	if st != nil {
		st.IndexBytes = fz.MapBytes()
		st.IndexEntries = fz.Entries()
	}
	return NewSealedMatcher(tau, sel, vk, st, corpus, fz)
}

// Len returns the number of inserted strings.
func (m *Matcher) Len() int { return len(m.strs) }

// String returns the id-th inserted string.
func (m *Matcher) String(id int) string { return m.strs[id] }

// Corpus returns the matcher's backing string slice (element id is the
// id-th inserted string). The slice is shared, not copied: callers must
// treat it as read-only. On a mutable matcher the returned prefix stays
// valid across later Inserts (appends never rewrite existing elements),
// which is what lets the dynamic tier capture a consistent cut of its
// delta without copying documents.
func (m *Matcher) Corpus() []string { return m.strs }

// FrozenIndex returns the frozen index, or nil for a mutable matcher.
func (m *Matcher) FrozenIndex() *index.Frozen { return m.fz }

// QueryOpts carries per-query parameters for the Query family. The zero
// value is NOT a useful default — Tau must be set explicitly (the public
// layer resolves "no override" to the matcher's build threshold).
type QueryOpts struct {
	// Tau is the per-probe threshold, in [0, matcher tau]. The partition
	// geometry stays the build threshold's; selection windows and
	// verification tighten to this budget (exact by the pigeonhole bound).
	Tau int
	// Limit, when > 0, stops the probe after that many hits. The hits kept
	// are the first discovered in probe order — a cheap cap, not a ranking.
	Limit int
	// Trace, when non-nil, receives per-phase wall time and counters for
	// this query. The trace is additive and must not be shared with a
	// concurrent query.
	Trace *obs.QueryTrace
}

// Query reports previously inserted strings within the threshold of s as
// (id, exact distance) pairs, without inserting s. Results are sorted by
// ascending id. The distances come from the verification pass itself, so
// callers need no second edit-distance computation.
func (m *Matcher) Query(s string) []Hit {
	return m.QueryOpt(s, QueryOpts{Tau: m.tau})
}

// QueryOpt is Query with per-query options: a probe threshold that may be
// smaller than the build threshold, and an optional hit cap. It panics when
// o.Tau is outside [0, matcher tau] — a larger threshold cannot be answered
// exactly by a partition built for a smaller one.
func (m *Matcher) QueryOpt(s string, o QueryOpts) []Hit {
	p := m.arm(o, true)
	defer m.release(p)
	m.run(p, s)
	out := make([]Hit, 0, len(p.hits))
	for k, id := range p.hits {
		out = append(out, Hit{ID: id, Dist: p.dists[k]})
	}
	slices.SortFunc(out, func(a, b Hit) int { return cmp.Compare(a.ID, b.ID) })
	if m.st != nil {
		m.st.Results += int64(len(out))
	}
	return out
}

// QuerySeq streams every hit within o.Tau of s to yield as verification
// accepts it, in probe order (not sorted), stopping early when yield
// returns false or o.Limit hits have been delivered. Hits are exact and
// deduplicated; distances are exact. The early exit is the point: a
// consumer that needs only a few matches abandons the rest of the probe.
func (m *Matcher) QuerySeq(s string, o QueryOpts, yield func(Hit) bool) {
	p := m.arm(o, true)
	defer m.release(p)
	p.emit = yield
	m.run(p, s)
	if m.st != nil {
		m.st.Results += int64(p.found)
	}
}

// arm takes a prober from the pool (or makes one), points it at the
// matcher's current corpus and sets the query's threshold, hit cap and
// trace, and whether it records distances. It panics when o.Tau is outside
// [0, matcher tau]. The probe itself claims a fresh dedup epoch, so a probe
// that unwinds (a panicking QuerySeq consumer) cannot leave stamps that
// suppress hits from the next query on the same prober.
func (m *Matcher) arm(o QueryOpts, needDist bool) *prober {
	if o.Tau < 0 || o.Tau > m.tau {
		panic(fmt.Sprintf("core: query tau %d outside [0, %d]", o.Tau, m.tau))
	}
	p, _ := m.probers.Get().(*prober)
	if p == nil {
		p = newProber(m.tau, m.sel, m.vk, m.st, m.idx, m.fz, m.strs, m.sigs)
	}
	p.ref, p.sig = m.strs, m.sigs
	p.qtau, p.limit, p.trace = o.Tau, o.Limit, o.Trace
	p.needDist = needDist
	return p
}

// release returns an armed prober to the pool. Every query defers it: the
// consumer hook and the trace are cleared first, so a query that unwinds (a
// panicking QuerySeq consumer, a Goexit) cannot hand its hooks to the next
// query that takes this prober.
func (m *Matcher) release(p *prober) {
	p.emit, p.trace = nil, nil
	m.probers.Put(p)
}

// run is the one query pass under every entry point: it probes the segment
// indices for the strings of s's length window, then verifies the strings
// too short to partition directly, and hands every hit to accept until the
// cap or the consumer stops it.
func (m *Matcher) run(p *prober, s string) {
	p.probe(s, len(s)-p.qtau, len(s)+p.qtau)
	for _, rid := range m.shorts {
		if p.stopped {
			return
		}
		if absInt(len(m.strs[rid])-len(s)) > p.qtau {
			continue
		}
		if d := p.verifyDirect(m.strs[rid], s); d <= p.qtau {
			p.accept(rid, int32(d))
		}
	}
}

// QueryIDs is Query without the distance annotation: the extension
// verifiers skip the per-result exact-distance DP, so it is the cheaper
// form when only membership matters (streaming dedup, joins).
func (m *Matcher) QueryIDs(s string) []int32 {
	ids := m.match(s)
	if m.st != nil {
		m.st.Results += int64(len(ids))
	}
	return ids
}

// Insert adds s and returns the ids of previously inserted strings within
// the threshold (sorted ascending). The returned id of s itself is
// len-1 after insertion; duplicates are distinct ids. Insert panics on a
// sealed matcher.
func (m *Matcher) Insert(s string) []int32 {
	if m.fz != nil {
		panic("core: Insert into sealed Matcher")
	}
	out := m.match(s)
	m.InsertSilent(s)
	if m.st != nil {
		m.st.Results += int64(len(out))
	}
	return out
}

// Snapshot returns a read-only fork of the matcher without its stats sink:
// it shares the built index (map or frozen) and corpus, and has its own
// prober pool, so it answers concurrent queries while the original's sink
// keeps the build counters. Inserting into a snapshot (or into the original
// after snapshotting, while forks are querying) is not supported.
func (m *Matcher) Snapshot() *Matcher {
	return &Matcher{
		tau:    m.tau,
		sel:    m.sel,
		vk:     m.vk,
		idx:    m.idx,
		fz:     m.fz,
		strs:   m.strs,
		sigs:   m.sigs,
		shorts: m.shorts,
	}
}

// InsertSilent adds s without reporting matches — the bulk-loading path
// used to build a static search index. It panics on a sealed matcher.
func (m *Matcher) InsertSilent(s string) {
	if m.fz != nil {
		panic("core: Insert into sealed Matcher")
	}
	id := int32(len(m.strs))
	m.strs = append(m.strs, s)
	m.sigs = append(m.sigs, verify.SigOf(s))
	if len(s) > m.tau { // not ">= tau+1", which overflows at MaxInt
		m.idx.Add(id, s)
	} else {
		m.shorts = append(m.shorts, id)
		if m.st != nil {
			m.st.ShortStrings++
		}
	}
	if m.st != nil {
		m.st.Strings++
		if b := m.idx.Bytes(); b > m.st.IndexBytes {
			m.st.IndexBytes = b
			m.st.IndexEntries = m.idx.Entries()
		}
	}
}

// match probes for s at the build threshold, with no cap, trace or
// distances, and returns the matching ids sorted ascending.
func (m *Matcher) match(s string) []int32 {
	p := m.arm(QueryOpts{Tau: m.tau}, false)
	defer m.release(p)
	m.run(p, s)
	ids := append(make([]int32, 0, len(p.hits)), p.hits...)
	slices.Sort(ids)
	return ids
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
