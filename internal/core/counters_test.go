package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
	"passjoin/internal/metrics"
	"passjoin/internal/obs"
	"passjoin/internal/selection"
)

// TestWorkCountersPinned is the first of ROADMAP's deterministic
// work-counter gates: the paper's own measures of algorithmic work
// (Figs. 12–14) are exact functions of corpus and threshold, so any drift
// is a real change to selection, the signature filter or the verifiers —
// never noise. One default-options self join per regime — long strings
// (titles, tau 8) and short ones (author names, tau 2) — serial and with two
// workers, which probe the same index under the same two counting rules
// (lookupStage.lookup) and so must report the same work — the serial join at
// GOMAXPROCS 1 to 4, which splits its lookups over one goroutine at 1 and
// two (maxLookups) above. A
// change that means to move a counter updates its row here and says why.
func TestWorkCountersPinned(t *testing.T) {
	type counters struct {
		SelectedSubstrings, Lookups, LookupHits                                         int64
		Candidates, SigRejects, Verifications, DPCells, EarlyTerms, SharedRows, Results int64
	}
	cases := []struct {
		name   string
		corpus []string
		tau    int
		want   counters
	}{
		{"AuthorTitle(2000,1) tau=8", dataset.AuthorTitle(2000, 1), 8, counters{483443, 483443, 17216, 24554, 14716, 7398, 725856, 6594, 2852, 569}},
		{"Author(5000,1) tau=2", dataset.Author(5000, 1), 2, counters{59755, 59755, 7903, 13882, 12080, 1279, 20392, 490, 185, 785}},
	}
	for _, c := range cases {
		for _, mode := range []struct{ parallel, procs int }{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {2, runtime.GOMAXPROCS(0)}} {
			var st metrics.Stats
			var err error
			withProcs(mode.procs, func() { _, err = SelfJoin(c.corpus, Options{Tau: c.tau, Stats: &st, Parallel: mode.parallel}) })
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got := counters{st.SelectedSubstrings, st.Lookups, st.LookupHits,
				st.Candidates, st.SigRejects, st.Verifications, st.DPCells, st.EarlyTerms, st.SharedRows, st.Results}
			if got != c.want {
				t.Errorf("%s Parallel=%d GOMAXPROCS=%d:\n got %+v\nwant %+v", c.name, mode.parallel, mode.procs, got, c.want)
			}
		}
		// The one counter with a ground truth outside this package.
		if n := len(bruteforce.SelfJoin(c.corpus, c.tau)); int64(n) != c.want.Results {
			t.Errorf("%s: brute force finds %d pairs, the pinned Results is %d", c.name, n, c.want.Results)
		}
	}
}

// TestSerialEmitOrder pins the sequence, not the set, of the pairs the
// serial joins hand emit: by non-decreasing length of the probing string
// and, within a length, in the order the scan meets them. The values are
// FNV-64a hashes of the (R, S) sequence, little-endian, from the commit
// before the scan's lookups and verifications ran on two goroutines: an R≠S
// join probes the first quarter of the corpus against all of it. The
// sequence is the same at every GOMAXPROCS, however many goroutines share
// the lookups; it is checked at 1 to 4.
func TestSerialEmitOrder(t *testing.T) {
	cases := []struct {
		name       string
		corpus     []string
		tau        int
		self, rset map[VerifyKind]uint64
	}{
		{"AuthorTitle(2000,1) tau=8", dataset.AuthorTitle(2000, 1), 8,
			byVerifier(0x44c28c15b336bfb1, 0x447cab33175060b1),
			byVerifier(0xc1089536d0ec9452, 0xa38b8a3e687d1ea6)},
		{"Author(5000,1) tau=2", dataset.Author(5000, 1), 2,
			byVerifier(0x6654f61093d0d6d0, 0x0598bac201be70b8),
			byVerifier(0x4a2537ce031accab, 0xe0598c32f6a7f987)},
	}
	for _, c := range cases {
		for procs := 1; procs <= 4; procs++ {
			withProcs(procs, func() {
				for _, vk := range VerifyKinds {
					h := fnv.New64a()
					emit := func(p Pair) bool {
						h.Write(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(p.R)), uint32(p.S)))
						return true
					}
					opt := Options{Tau: c.tau, Verification: vk}
					if err := SelfJoinEach(context.Background(), c.corpus, opt, emit); err != nil {
						t.Fatal(err)
					}
					if got := h.Sum64(); got != c.self[vk] {
						t.Errorf("%s %v GOMAXPROCS=%d SelfJoinEach: sequence hash %#x, want %#x", c.name, vk, procs, got, c.self[vk])
					}
					h.Reset()
					if err := JoinEach(context.Background(), c.corpus[:len(c.corpus)/4], c.corpus, opt, emit); err != nil {
						t.Fatal(err)
					}
					if got := h.Sum64(); got != c.rset[vk] {
						t.Errorf("%s %v GOMAXPROCS=%d JoinEach: sequence hash %#x, want %#x", c.name, vk, procs, got, c.rset[vk])
					}
				}
			})
		}
	}
}

// byVerifier spreads two values over the verifiers: ext for the two
// extension verifiers, which emit a pair where the alignment that accepts
// it is met, and whole for the three whole-string ones, which emit a chunk's
// pairs once its lookups are through, by string and candidate — the same
// sequence for all three, since they agree on every pair.
func byVerifier(ext, whole uint64) map[VerifyKind]uint64 {
	return map[VerifyKind]uint64{
		VerifyExtensionShared: ext, VerifyExtension: ext,
		VerifyLengthAware: whole, VerifyNaive: whole, VerifyMyers: whole,
	}
}

// earlyStopCorpus is author names around eleven near copies of one string —
// deletions, substitutions and insertions, so its hits lie in seven length
// groups — and the query is that string: at tau 4 it makes 85 lookups, three
// batches, with hits in all three.
func earlyStopCorpus() (corpus []string, query string) {
	corpus = dataset.Author(1200, 9)
	for k, v := range []string{
		"margaret thornton", "margret thornton", "margaret thorntonn", "margaret thorton",
		"nargaret thornton", "margaret  thornton", "margaretthornton", "margaret thornten",
		"margaret thorntonian", "dr margaret thornton", "mxargaret thorntonxy",
	} {
		corpus[100+97*k] = v
	}
	return corpus, "margaret thornton"
}

// workDone is the probe's share of metrics.Stats.
type workDone struct {
	SelectedSubstrings, Lookups, LookupHits, Candidates, Verifications, Results int64
}

func workOf(st *metrics.Stats) workDone {
	return workDone{st.SelectedSubstrings, st.Lookups, st.LookupHits, st.Candidates, st.Verifications, st.Results}
}

// TestEarlyStopCounters pins what a probe that stops early has counted: the
// slots up to and including the one it stopped in, whatever else its lookup
// batch had already resolved. The values are those of the commit before the
// batch, which finished every lookup before it began the next. A stopped
// probe leaves nothing behind: the same matcher then answers in full, with a
// full probe's counters.
func TestEarlyStopCounters(t *testing.T) {
	corpus, q := earlyStopCorpus()
	want := map[int]workDone{ // by limit; 0 is none. Lookups 25 and 37 and 73: one stop in each batch
		0: {85, 85, 31, 55, 11, 11},
		1: {25, 25, 6, 13, 1, 1},
		2: {25, 25, 6, 14, 2, 2},
		5: {37, 37, 14, 29, 5, 5},
		9: {73, 73, 26, 50, 9, 9},
	}
	var st metrics.Stats
	m, err := BuildSealedMatcher(4, selection.MultiMatch, VerifyExtensionShared, &st, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := bruteHits(corpus, q, 4)
	if len(full) != 11 {
		t.Fatalf("%d strings within 4 of the query, want the 11 planted", len(full))
	}
	for _, limit := range []int{1, 2, 5, 9, 0} {
		// QueryOpt stops at Limit; QuerySeq when its consumer says so.
		stops := map[string]func() int{
			"QueryOpt": func() int { return len(m.QueryOpt(q, QueryOpts{Tau: 4, Limit: limit})) },
			"QuerySeq": func() int {
				n := 0
				m.QuerySeq(q, QueryOpts{Tau: 4}, func(Hit) bool { n++; return n != limit })
				return n
			},
			// A consumer that panics unwinds through a half-consumed batch.
			"panicking QuerySeq": func() (n int) {
				defer func() { recover() }()
				m.QuerySeq(q, QueryOpts{Tau: 4}, func(Hit) bool {
					if n++; n == limit {
						panic("consumer bails")
					}
					return true
				})
				return n
			},
		}
		for name, stop := range stops {
			st = metrics.Stats{}
			if n := stop(); n != int(want[limit].Results) {
				t.Fatalf("%s limit %d: %d hits", name, limit, n)
			}
			got := workOf(&st)
			if limit > 0 && name == "panicking QuerySeq" {
				got.Results = want[limit].Results // nobody is left to count them
			}
			if got != want[limit] {
				t.Errorf("%s limit %d:\n got %+v\nwant %+v", name, limit, got, want[limit])
			}
			st = metrics.Stats{}
			if got := m.Query(q); !slices.Equal(got, full) {
				t.Fatalf("after %s limit %d the matcher answers %v, want %v", name, limit, got, full)
			}
			if got := workOf(&st); got != want[0] {
				t.Errorf("after %s limit %d a full probe counts\n got %+v\nwant %+v", name, limit, got, want[0])
			}
		}
	}
}

// TestTracedProbeCounts holds a traced probe to the untraced one's numbers:
// under every verifier, on the frozen index and on the map index, stopped
// early or not, the trace counts the substrings, lookups and verifications
// that metrics.Stats counts, and the hits are the same hits.
func TestTracedProbeCounts(t *testing.T) {
	corpus, q := earlyStopCorpus()
	for _, vk := range VerifyKinds {
		var st metrics.Stats
		m, err := NewMatcher(4, selection.MultiMatch, vk, &st)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range corpus {
			m.InsertSilent(s)
		}
		for _, sealed := range []bool{false, true} {
			if sealed {
				m = sealedFrom(t, m, &st)
			}
			for _, o := range []QueryOpts{{Tau: 4}, {Tau: 2}, {Tau: 4, Limit: 2}, {Tau: 4, Limit: 9}} {
				plain := m.QueryOpt(q, o)
				var tr obs.QueryTrace
				o.Trace = &tr
				st = metrics.Stats{}
				traced := m.QueryOpt(q, o)
				if !slices.Equal(traced, plain) {
					t.Fatalf("%v sealed=%v %+v: traced hits %v, untraced %v", vk, sealed, o, traced, plain)
				}
				got := [3]int64{tr.Phase(obs.PhaseSelect).Count, tr.Phase(obs.PhaseProbe).Count, tr.Phase(obs.PhaseVerify).Count}
				if want := [3]int64{st.SelectedSubstrings, st.Lookups, st.Verifications}; got != want || want[0] == 0 || want[2] == 0 {
					t.Errorf("%v sealed=%v %+v: trace counts (selection, probe, verify) %v, stats %v", vk, sealed, o, got, want)
				}
			}
		}
	}
}
