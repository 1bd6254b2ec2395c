package edjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
	"passjoin/internal/metrics"
)

func randStr(rng *rand.Rand, n, alpha int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(alpha))
	}
	return string(b)
}

func mutateN(rng *rand.Rand, s string, k, alpha int) string {
	b := []byte(s)
	for e := 0; e < k; e++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0:
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(alpha))
		case op == 1 && len(b) > 0:
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default:
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{byte('a' + rng.Intn(alpha))}, b[i:]...)...)
		}
	}
	return string(b)
}

func corpus(rng *rand.Rand, n, maxLen, alpha int) []string {
	strs := make([]string, 0, n)
	for len(strs) < n {
		if len(strs) > 0 && rng.Float64() < 0.5 {
			strs = append(strs, mutateN(rng, strs[rng.Intn(len(strs))], 1+rng.Intn(3), alpha))
		} else {
			strs = append(strs, randStr(rng, rng.Intn(maxLen+1), alpha))
		}
	}
	return strs
}

func assertEquiv(t *testing.T, label string, strs []string, tau int, got []core.Pair) {
	t.Helper()
	want := make(map[core.Pair]bool)
	for _, p := range bruteforce.SelfJoin(strs, tau) {
		want[core.Pair{R: p.R, S: p.S}] = true
	}
	gotSet := make(map[core.Pair]bool)
	for _, p := range got {
		if gotSet[p] {
			t.Fatalf("%s: duplicate pair %v", label, p)
		}
		gotSet[p] = true
	}
	for p := range want {
		if !gotSet[p] {
			t.Fatalf("%s: missing pair %v (%q ~ %q)", label, p, strs[p.R], strs[p.S])
		}
	}
	for p := range gotSet {
		if !want[p] {
			t.Fatalf("%s: spurious pair %v (%q vs %q)", label, p, strs[p.R], strs[p.S])
		}
	}
}

// ED-Join must be exact for every (tau, q) across corpora including
// repetitive low-alphabet strings (which stress the prefix tie closure)
// and strings shorter than q (the unprunable path).
func TestEdJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	corpora := map[string][]string{
		"random":     corpus(rng, 120, 18, 4),
		"lowalpha":   corpus(rng, 90, 14, 2),
		"repetitive": {"", "a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa", "aaaab", "abab", "ababab", "bababa", "aaaaaaa", "aab"},
	}
	for name, strs := range corpora {
		for tau := 0; tau <= 3; tau++ {
			for _, q := range []int{2, 3, 4} {
				got, err := Join(strs, tau, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertEquiv(t, fmt.Sprintf("edjoin/%s/tau=%d/q=%d", name, tau, q), strs, tau, got)
			}
		}
	}
}

func TestAllPairsConfigEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	strs := corpus(rng, 120, 16, 3)
	for tau := 0; tau <= 3; tau++ {
		for _, q := range []int{2, 3} {
			got, err := JoinConfig(strs, tau, Config{Q: q}, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertEquiv(t, fmt.Sprintf("allpairs/tau=%d/q=%d", tau, q), strs, tau, got)
		}
	}
}

// All-Pairs-Ed is JoinConfig with the count prefix alone; it must be exact
// on a second corpus too.
func TestAllPairsEquivalence(t *testing.T) {
	strs := corpus(rand.New(rand.NewSource(71)), 110, 16, 3)
	for tau := 0; tau <= 3; tau++ {
		for _, q := range []int{2, 3} {
			got, err := JoinConfig(strs, tau, Config{Q: q}, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertEquiv(t, fmt.Sprintf("tau=%d/q=%d", tau, q), strs, tau, got)
		}
	}
}

// All-Pairs-Ed must generate at least as many prefix grams as ED-Join's
// location-shortened prefix (the paper's claim that ED-Join dominates it).
func TestAllPairsSelectsMoreGramsThanEdJoin(t *testing.T) {
	strs := corpus(rand.New(rand.NewSource(72)), 200, 40, 6)
	tau, q := 2, 3
	stAll := &metrics.Stats{}
	stEd := &metrics.Stats{}
	if _, err := JoinConfig(strs, tau, Config{Q: q}, stAll); err != nil {
		t.Fatal(err)
	}
	if _, err := Join(strs, tau, q, stEd); err != nil {
		t.Fatal(err)
	}
	if stAll.SelectedSubstrings < stEd.SelectedSubstrings {
		t.Errorf("all-pairs selected %d grams, edjoin %d", stAll.SelectedSubstrings, stEd.SelectedSubstrings)
	}
}

func TestFilterCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	strs := corpus(rng, 80, 15, 3)
	cfgs := []Config{
		{Q: 3},
		{Q: 3, LocationPrefix: true},
		{Q: 3, ContentFilter: true},
		{Q: 3, LocationPrefix: true, ContentFilter: true},
	}
	for tau := 1; tau <= 2; tau++ {
		for i, cfg := range cfgs {
			got, err := JoinConfig(strs, tau, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertEquiv(t, fmt.Sprintf("cfg%d/tau=%d", i, tau), strs, tau, got)
		}
	}
}

func TestLocationPrefixShorterThanCountPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	strs := corpus(rng, 150, 40, 6)
	tau, q := 2, 3
	stCount := &metrics.Stats{}
	stLoc := &metrics.Stats{}
	if _, err := JoinConfig(strs, tau, Config{Q: q}, stCount); err != nil {
		t.Fatal(err)
	}
	if _, err := JoinConfig(strs, tau, Config{Q: q, LocationPrefix: true}, stLoc); err != nil {
		t.Fatal(err)
	}
	if stLoc.SelectedSubstrings > stCount.SelectedSubstrings {
		t.Errorf("location prefix selected %d grams, count prefix %d", stLoc.SelectedSubstrings, stCount.SelectedSubstrings)
	}
}

func TestContentFilterReducesVerifications(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	strs := corpus(rng, 200, 20, 8)
	tau, q := 2, 2
	stOff := &metrics.Stats{}
	stOn := &metrics.Stats{}
	if _, err := JoinConfig(strs, tau, Config{Q: q, LocationPrefix: true}, stOff); err != nil {
		t.Fatal(err)
	}
	if _, err := JoinConfig(strs, tau, Config{Q: q, LocationPrefix: true, ContentFilter: true}, stOn); err != nil {
		t.Fatal(err)
	}
	if stOn.Verifications > stOff.Verifications {
		t.Errorf("content filter increased verifications: %d > %d", stOn.Verifications, stOff.Verifications)
	}
}

func TestBadArgs(t *testing.T) {
	if _, err := Join([]string{"a"}, -1, 2, nil); err == nil {
		t.Error("negative tau accepted")
	}
	if _, err := Join([]string{"a"}, 1, 0, nil); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestAllPairsBadArgs(t *testing.T) {
	if _, err := JoinConfig([]string{"a"}, -1, Config{Q: 2}, nil); err == nil {
		t.Error("negative tau accepted")
	}
	if _, err := JoinConfig([]string{"a"}, 1, Config{}, nil); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	strs := corpus(rng, 100, 15, 3)
	st := &metrics.Stats{}
	got, err := Join(strs, 2, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != int64(len(got)) {
		t.Errorf("Results=%d, want %d", st.Results, len(got))
	}
	if st.IndexBytes <= 0 || st.Strings != int64(len(strs)) {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestIndexFootprint(t *testing.T) {
	strs := []string{"abcdefgh", "abcdefgi", "zzzzzzzz"}
	bytes, entries := IndexFootprint(strs, 1, 4)
	if bytes <= 0 || entries <= 0 {
		t.Errorf("footprint: %d bytes, %d entries", bytes, entries)
	}
}

func TestLocationFilterExactAndEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	strs := corpus(rng, 200, 24, 4)
	tau, q := 2, 3
	// Exactness with the pair-level filter enabled.
	got, err := JoinConfig(strs, tau, Config{Q: q, LocationPrefix: true, LocationFilter: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertEquiv(t, "location-filter", strs, tau, got)
	// Effectiveness: fewer DP verifications than without the filter.
	stOff := &metrics.Stats{}
	stOn := &metrics.Stats{}
	if _, err := JoinConfig(strs, tau, Config{Q: q, LocationPrefix: true}, stOff); err != nil {
		t.Fatal(err)
	}
	if _, err := JoinConfig(strs, tau, Config{Q: q, LocationPrefix: true, LocationFilter: true}, stOn); err != nil {
		t.Fatal(err)
	}
	if stOn.Verifications > stOff.Verifications {
		t.Errorf("location filter increased verifications: %d > %d", stOn.Verifications, stOff.Verifications)
	}
}

func TestFullFilterStackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	corpora := map[string][]string{
		"random":   corpus(rng, 120, 20, 4),
		"lowalpha": corpus(rng, 90, 14, 2),
	}
	for name, strs := range corpora {
		for tau := 0; tau <= 3; tau++ {
			got, err := Join(strs, tau, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertEquiv(t, fmt.Sprintf("fullstack/%s/tau=%d", name, tau), strs, tau, got)
		}
	}
}
