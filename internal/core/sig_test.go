package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// sigCorpus is adversarial for the histogram signature: long runs of one
// byte (counts far past the two thermometer levels), near-duplicates that
// differ only in how often a repeated character occurs, bytes that share a
// bucket under &31 ('-'/'m'/'M', 'a'/'A'/0xe1), and strings no longer than
// the threshold, which sit on the shorts list.
func sigCorpus() []string {
	out := []string{
		"", "a", "A", "m", "-", "aa", "ab", "ba", "aaa", "aab", "-m", "mm", "m-m",
		"aaaaaaaa", "aaaaaaab", "aaaaaabb", "aaaaabbb", "aaaabbbb", "aaabbbbb",
		"aaaaaaaaa", "aaaaaaaaaa", "aaaaaaaaab", "baaaaaaaaa", "aaaaabaaaa",
		"abababab", "babababa", "abababa", "ababababa", "abbaabba", "aabbaabb",
		"mississippi", "missisippi", "mississipi", "misissippi", "mmississippi",
		"Mississippi", "-ississippi", "mississippi-", "mississipp\xe9",
		"anna-maria", "annammaria", "anna maria", "ana-maria", "anna-mari",
		"\xe1\xe1\xe1\xe1aaaa", "aaaa\xe1\xe1\xe1\xe1", "AAAAaaaa", "aaaaAAAA", "aAaAaAaA",
		"\x00\x00\x00\x00", "\x00\x00\x00", "\x80\x80\x80\x80", "\x00\x80\x00\x80",
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 60; k++ {
		base := strings.Repeat(string(rune('a'+rng.Intn(3))), 3+rng.Intn(6)) +
			strings.Repeat(string(rune('a'+rng.Intn(3))), rng.Intn(6))
		out = append(out, base, mutateN(rng, base, 1+rng.Intn(3), 3))
	}
	return out
}

func bruteHits(corpus []string, q string, qtau int) []Hit {
	hits := []Hit{}
	for id, s := range corpus {
		if d := verify.EditDistance(s, q); d <= qtau {
			hits = append(hits, Hit{ID: int32(id), Dist: int32(d)})
		}
	}
	return hits
}

// TestSigFilterMatchersMatchBruteForce: with the signature filter in front
// of every verifier, the mutable matcher, the sealed matcher, a matcher
// sealed from a prebuilt frozen index, a bulk-built one and a snapshot
// answer exactly what brute force answers, for every verification kind and
// every query threshold the index can serve.
func TestSigFilterMatchersMatchBruteForce(t *testing.T) {
	corpus := sigCorpus()
	rng := rand.New(rand.NewSource(6))
	queries := append([]string{}, corpus...)
	for _, s := range corpus {
		queries = append(queries, mutateN(rng, s, 1+rng.Intn(3), 3))
	}
	const tau = 3
	for _, vk := range VerifyKinds {
		mutable, err := NewMatcher(tau, selection.MultiMatch, vk, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range corpus {
			mutable.InsertSilent(s)
		}
		sealed := sealedFrom(t, mutable, nil)
		cold, err := NewSealedMatcher(tau, selection.MultiMatch, vk, nil, corpus, sealed.FrozenIndex())
		if err != nil {
			t.Fatal(err)
		}
		var bulkStats metrics.Stats
		bulk, err := BuildSealedMatcher(tau, selection.MultiMatch, vk, &bulkStats, corpus, 2)
		if err != nil {
			t.Fatal(err)
		}
		if b, e := wholeIndex(t, corpus, tau); bulkStats.IndexBytes != b || bulkStats.IndexEntries != e || bulkStats.FrozenEntries != e {
			t.Fatalf("bulk build stats %+v, map index is %d B / %d entries", bulkStats, b, e)
		}
		matchers := map[string]*Matcher{
			"bulk":                 bulk,
			"snapshot-bulk":        bulk.Snapshot(),
			"mutable":              mutable,
			"sealed":               sealed,
			"cold-sealed":          cold,
			"snapshot":             sealed.Snapshot(),
			"snapshot-mutable":     mutable.Snapshot(),
			"snapshot-of-snapshot": cold.Snapshot().Snapshot(),
		}
		for _, q := range queries {
			for qtau := 0; qtau <= tau; qtau++ {
				want := bruteHits(corpus, q, qtau)
				for name, m := range matchers {
					if got := m.QueryOpt(q, QueryOpts{Tau: qtau}); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v %s q=%q qtau=%d: got %v, want %v", vk, name, q, qtau, got, want)
					}
				}
			}
		}
	}
}

// TestJoinModesAgree: every join entry point — SelfJoin and Join, the
// stream joins at 1 and 4 workers — answers what brute force answers on the
// adversarial corpus, for every verification kind and threshold (joins
// probe at their build threshold, so the threshold itself varies), and
// every parallelism reports the same Stats field by field, index footprint
// included: the same scan, whatever the workers.
func TestJoinModesAgree(t *testing.T) {
	strs := sigCorpus()
	rng := rand.New(rand.NewSource(7))
	rset := make([]string, 0, len(strs))
	for _, s := range strs {
		rset = append(rset, mutateN(rng, s, rng.Intn(3), 3))
	}
	sameWork := func(label string, serial, parallel metrics.Stats) {
		t.Helper()
		if serial.Lookups == 0 || serial.PeakLiveGroups == 0 {
			t.Fatalf("%s: implausible stats: %+v", label, serial)
		}
		if serial != parallel {
			t.Fatalf("%s: serial and parallel stats differ:\n serial   %+v\n parallel %+v", label, serial, parallel)
		}
	}
	for _, vk := range VerifyKinds {
		for tau := 0; tau <= 3; tau++ {
			label := fmt.Sprintf("%v tau=%d", vk, tau)
			var selfStats, rsStats metrics.Stats
			got, err := SelfJoin(strs, Options{Tau: tau, Verification: vk, Stats: &selfStats})
			if err != nil {
				t.Fatal(err)
			}
			checkEquiv(t, label+" self", strs, tau, got)

			wantRS := make([]Pair, 0)
			for _, p := range bruteforce.Join(rset, strs, tau) {
				wantRS = append(wantRS, Pair{p.R, p.S})
			}
			SortPairs(wantRS)
			gotRS, err := Join(rset, strs, Options{Tau: tau, Verification: vk, Stats: &rsStats})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]Pair{}, gotRS...), wantRS) {
				t.Fatalf("%s R×S: got %d pairs, want %d", label, len(gotRS), len(wantRS))
			}

			for _, workers := range []int{1, 4} {
				var st metrics.Stats
				opt := Options{Tau: tau, Verification: vk, Parallel: workers, Stats: &st}
				checkEquiv(t, fmt.Sprintf("%s self-stream w=%d", label, workers), strs, tau,
					collectStream(t, context.Background(), strs, opt))
				sameWork(fmt.Sprintf("%s self w=%d", label, workers), selfStats, st)

				st = metrics.Stats{}
				var rs []Pair
				err := JoinEach(context.Background(), rset, strs, opt, func(p Pair) bool {
					rs = append(rs, p)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				SortPairs(rs)
				if !reflect.DeepEqual(append([]Pair{}, rs...), wantRS) {
					t.Fatalf("%s R×S stream w=%d: got %d pairs, want %d", label, workers, len(rs), len(wantRS))
				}
				sameWork(fmt.Sprintf("%s R×S w=%d", label, workers), rsStats, st)
			}
		}
	}
}

// TestSigFilterStorage: the signatures are one array per corpus, shared by
// snapshots and their probers, and a matcher that is never queried holds no
// prober, so no dedup stamps.
func TestSigFilterStorage(t *testing.T) {
	corpus := sigCorpus()
	base, err := BuildSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := base.Snapshot()
	for _, q := range corpus {
		snap.Query(q)
	}
	if p := base.probers.Get(); p != nil {
		t.Errorf("base matcher holds a prober with %d stamps without being queried", len(p.(*prober).stamp))
	}
	p := snap.arm(QueryOpts{Tau: 2}, true)
	defer snap.release(p)
	snap.run(p, corpus[len(corpus)-1])
	if len(p.stamp) != len(corpus) {
		t.Errorf("queried snapshot's prober holds %d stamps, want %d", len(p.stamp), len(corpus))
	}
	if len(base.sigs) != len(corpus) {
		t.Fatalf("base holds %d signatures, want %d", len(base.sigs), len(corpus))
	}
	if &snap.sigs[0] != &base.sigs[0] || &p.sig[0] != &base.sigs[0] {
		t.Error("snapshot copied the signature array instead of sharing it")
	}
	for id, s := range corpus {
		if base.sigs[id] != verify.SigOf(s) {
			t.Fatalf("sigs[%d] = %#x, want SigOf(%q) = %#x", id, base.sigs[id], s, verify.SigOf(s))
		}
	}
}

// TestStampEpochWrap: a long-lived prober's epoch counter reaches its limit
// after 2³¹ probes; the stamps left by the earliest probes must not then
// read as "already settled" and swallow hits. Queries across the wrap
// answer exactly like a fresh matcher. The probes run on one prober taken
// with arm and released by hand, since the pool may hand a query any
// prober (and under -race drops some at random).
func TestStampEpochWrap(t *testing.T) {
	corpus := sigCorpus()
	for _, vk := range []VerifyKind{VerifyExtensionShared, VerifyLengthAware} {
		build := func() *Matcher {
			m, err := BuildSealedMatcher(2, selection.MultiMatch, vk, nil, corpus, 1)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		old, fresh := build(), build()
		p := old.arm(QueryOpts{Tau: 2}, true)
		query := func(q string) []Hit {
			old.run(p, q)
			got := make([]Hit, len(p.hits))
			for k, id := range p.hits {
				got[k] = Hit{ID: id, Dist: p.dists[k]}
			}
			slices.SortFunc(got, func(a, b Hit) int { return cmp.Compare(a.ID, b.ID) })
			return got
		}
		// The k-th probe of a prober's life stamps what it settles with
		// epoch k. Two more probes take the counter to its limit, after
		// which the same queries in the same order would meet exactly their
		// own stale stamps if the wrap did not clear them.
		var queries []string
		for _, s := range corpus {
			if len(s) > 2 {
				queries = append(queries, s)
			}
		}
		for _, q := range queries {
			query(q)
		}
		p.epoch = math.MaxInt32 - 2
		for _, q := range append([]string{"filler", "filler"}, queries...) {
			if got, want := query(q), fresh.Query(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v q=%q at epoch %d: got %v, want %v", vk, q, p.epoch, got, want)
			}
		}
		if got, want := p.epoch, int32(len(queries)); got != want {
			t.Fatalf("%v: epoch after the wrap = %d, want %d", vk, got, want)
		}
		old.release(p)
	}
}

// TestSigRejectsCounter: the filter is counted, it does not change what
// counts as a candidate, and a candidate occurrence is rejected, verified or
// skipped as already settled — never two of those.
func TestSigRejectsCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	strs := make([]string, 0, 400)
	for len(strs) < 400 {
		if len(strs) > 0 && rng.Intn(2) == 0 {
			strs = append(strs, mutateN(rng, strs[rng.Intn(len(strs))], 1+rng.Intn(3), 12))
		} else {
			strs = append(strs, randStr(rng, 6+rng.Intn(8), 12))
		}
	}
	// Candidates on this fixture at the commit before the filter existed,
	// the same for every verification kind (it counts postings scanned).
	const wantCandidates = 991
	for _, vk := range VerifyKinds {
		st := &metrics.Stats{}
		got, err := SelfJoin(strs, Options{Tau: 2, Verification: vk, Stats: st})
		if err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, vk.String(), strs, 2, got)
		if st.Candidates != wantCandidates {
			t.Errorf("%v: Candidates = %d, want %d as before the filter", vk, st.Candidates, wantCandidates)
		}
		if st.SigRejects == 0 {
			t.Errorf("%v: SigRejects = 0", vk)
		}
		if st.SigRejects+st.Verifications > st.Candidates {
			t.Errorf("%v: SigRejects %d + Verifications %d > Candidates %d", vk, st.SigRejects, st.Verifications, st.Candidates)
		}
	}
}
