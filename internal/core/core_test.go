package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// paperStrings is Table 1 of the paper.
var paperStrings = []string{
	"avataresha",
	"caushik chakrabar",
	"kaushic chaduri",
	"kaushik chakrab",
	"kaushuk chadhui",
	"vankatesh",
}

func TestPaperRunningExample(t *testing.T) {
	// §3.2 / Figure 1: with tau=3 the only similar pair is
	// <kaushik chakrab, caushik chakrabar> (s4, s6).
	pairs, err := SelfJoin(paperStrings, Options{Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs (%v), want 1", len(pairs), pairs)
	}
	r, s := paperStrings[pairs[0].R], paperStrings[pairs[0].S]
	if !(r == "caushik chakrabar" && s == "kaushik chakrab" || r == "kaushik chakrab" && s == "caushik chakrabar") {
		t.Fatalf("wrong pair: %q, %q", r, s)
	}
}

func toSet(ps []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func brutePairs(strs []string, tau int) map[Pair]bool {
	m := make(map[Pair]bool)
	for _, p := range bruteforce.SelfJoin(strs, tau) {
		m[Pair{p.R, p.S}] = true
	}
	return m
}

func checkEquiv(t *testing.T, label string, strs []string, tau int, got []Pair) {
	t.Helper()
	want := brutePairs(strs, tau)
	gotSet := toSet(got)
	if len(gotSet) != len(got) {
		t.Fatalf("%s: duplicate pairs emitted (%d pairs, %d unique)", label, len(got), len(gotSet))
	}
	for p := range want {
		if !gotSet[p] {
			t.Errorf("%s: missing pair (%d,%d): %q ~ %q", label, p.R, p.S, strs[p.R], strs[p.S])
		}
	}
	for p := range gotSet {
		if !want[p] {
			t.Errorf("%s: spurious pair (%d,%d): %q vs %q", label, p.R, p.S, strs[p.R], strs[p.S])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

func randomCorpus(rng *rand.Rand, n, maxLen, alpha int, mutRate float64, maxEdits int) []string {
	strs := make([]string, 0, n)
	for len(strs) < n {
		if len(strs) > 0 && rng.Float64() < mutRate {
			base := strs[rng.Intn(len(strs))]
			strs = append(strs, mutateN(rng, base, 1+rng.Intn(maxEdits), alpha))
		} else {
			strs = append(strs, randStr(rng, rng.Intn(maxLen+1), alpha))
		}
	}
	return strs
}

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

// The heart of the test suite: every selection × verification combination
// must reproduce the brute-force result set exactly, across thresholds and
// adversarial corpora (duplicates, empty strings, strings shorter than
// tau+1, highly repetitive strings).
func TestSelfJoinEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpora := map[string][]string{
		"random":     randomCorpus(rng, 120, 18, 3, 0.5, 3),
		"repetitive": {"", "a", "aa", "aaa", "aaaa", "aaaaa", "aaaaaa", "aaaab", "abab", "ababab", "bababa", "aaaaaaa", "aaaaaab", "baaaaaa", "aab", "aba"},
		"paper":      paperStrings,
		"names":      randomCorpus(rng, 100, 24, 5, 0.6, 4),
	}
	for name, strs := range corpora {
		for tau := 0; tau <= 4; tau++ {
			for _, sel := range selection.Methods {
				for _, vk := range VerifyKinds {
					label := fmt.Sprintf("%s/tau=%d/%v/%v", name, tau, sel, vk)
					got, err := SelfJoin(strs, Options{Tau: tau, Selection: sel, Verification: vk})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkEquiv(t, label, strs, tau, got)
				}
			}
		}
	}
}

func TestSelfJoinParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	strs := randomCorpus(rng, 300, 20, 3, 0.5, 3)
	for tau := 0; tau <= 3; tau++ {
		seq, err := SelfJoin(strs, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := SelfJoin(strs, Options{Tau: tau, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(seq) {
				t.Fatalf("tau=%d workers=%d: %d pairs vs %d sequential", tau, workers, len(par), len(seq))
			}
			for i := range par {
				if par[i] != seq[i] {
					t.Fatalf("tau=%d workers=%d: pair %d differs: %v vs %v", tau, workers, i, par[i], seq[i])
				}
			}
		}
	}
}

func TestJoinRSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rset := randomCorpus(rng, 80, 16, 3, 0.4, 3)
	sset := randomCorpus(rng, 90, 16, 3, 0.4, 3)
	// Seed cross-set similarity.
	for i := 0; i < 25; i++ {
		sset = append(sset, mutateN(rng, rset[rng.Intn(len(rset))], 1+rng.Intn(3), 3))
	}
	for tau := 0; tau <= 4; tau++ {
		for _, vk := range VerifyKinds {
			got, err := Join(rset, sset, Options{Tau: tau, Verification: vk})
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[Pair]bool)
			for _, p := range bruteforce.Join(rset, sset, tau) {
				want[Pair{p.R, p.S}] = true
			}
			gotSet := toSet(got)
			if len(gotSet) != len(got) {
				t.Fatalf("tau=%d %v: duplicates in output", tau, vk)
			}
			if len(gotSet) != len(want) {
				t.Fatalf("tau=%d %v: %d pairs, want %d", tau, vk, len(gotSet), len(want))
			}
			for p := range want {
				if !gotSet[p] {
					t.Fatalf("tau=%d %v: missing %v", tau, vk, p)
				}
			}
		}
	}
}

func TestJoinRSParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rset := randomCorpus(rng, 120, 16, 3, 0.4, 3)
	sset := randomCorpus(rng, 140, 16, 3, 0.4, 3)
	for tau := 0; tau <= 3; tau++ {
		seq, err := Join(rset, sset, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5} {
			par, err := Join(rset, sset, Options{Tau: tau, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(seq) {
				t.Fatalf("tau=%d workers=%d: %d pairs vs %d", tau, workers, len(par), len(seq))
			}
			for i := range par {
				if par[i] != seq[i] {
					t.Fatalf("tau=%d workers=%d: pair %d differs", tau, workers, i)
				}
			}
		}
	}
}

func TestJoinRSAsymmetricSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	small := []string{"vldb", "sigmod", "icde"}
	big := randomCorpus(rng, 60, 12, 4, 0.3, 2)
	big = append(big, "pvldb", "vldbj", "sigmmod", "icdm")
	got, err := Join(small, big, Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteforce.Join(small, big, 2)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
}

func TestSelfJoinEmptyAndTinyInputs(t *testing.T) {
	if got, err := SelfJoin(nil, Options{Tau: 2}); err != nil || len(got) != 0 {
		t.Fatalf("nil input: %v %v", got, err)
	}
	if got, err := SelfJoin([]string{"solo"}, Options{Tau: 2}); err != nil || len(got) != 0 {
		t.Fatalf("single input: %v %v", got, err)
	}
	got, err := SelfJoin([]string{"", ""}, Options{Tau: 0})
	if err != nil || len(got) != 1 {
		t.Fatalf("two empty strings at tau=0: %v %v", got, err)
	}
}

func TestSelfJoinTauZeroIsExactDuplicates(t *testing.T) {
	strs := []string{"x", "y", "x", "z", "y", "x"}
	got, err := SelfJoin(strs, Options{Tau: 0})
	if err != nil {
		t.Fatal(err)
	}
	// x appears 3 times (3 pairs), y twice (1 pair).
	if len(got) != 4 {
		t.Fatalf("got %v, want 4 duplicate pairs", got)
	}
	checkEquiv(t, "tau0", strs, 0, got)
}

func TestNegativeTauRejected(t *testing.T) {
	if _, err := SelfJoin([]string{"a"}, Options{Tau: -1}); err == nil {
		t.Error("SelfJoin accepted negative tau")
	}
	if _, err := Join([]string{"a"}, []string{"b"}, Options{Tau: -1}); err == nil {
		t.Error("Join accepted negative tau")
	}
	if _, err := NewMatcher(-1, selection.MultiMatch, VerifyExtensionShared, nil); err == nil {
		t.Error("NewMatcher accepted negative tau")
	}
}

func TestShortStringsAllLengths(t *testing.T) {
	// Everything at or below tau bypasses the index; mix with longer ones.
	strs := []string{"", "a", "b", "ab", "ba", "abc", "abcd", "abcde", "xyz", "xy", "x", ""}
	for tau := 0; tau <= 4; tau++ {
		got, err := SelfJoin(strs, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, fmt.Sprintf("shorts tau=%d", tau), strs, tau, got)
	}
}

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	strs := randomCorpus(rng, 150, 15, 3, 0.5, 3)
	st := &metrics.Stats{}
	got, err := SelfJoin(strs, Options{Tau: 2, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != int64(len(got)) {
		t.Errorf("Results=%d, want %d", st.Results, len(got))
	}
	if st.Strings != int64(len(strs)) {
		t.Errorf("Strings=%d, want %d", st.Strings, len(strs))
	}
	if st.SelectedSubstrings == 0 || st.Lookups == 0 {
		t.Error("selection counters not recorded")
	}
	if st.Verifications == 0 || st.Candidates == 0 {
		t.Error("verification counters not recorded")
	}
	if st.IndexBytes <= 0 || st.IndexEntries <= 0 {
		t.Error("index size not recorded")
	}
}

func TestMatcherMatchesOfflineJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	strs := randomCorpus(rng, 150, 14, 3, 0.5, 3)
	for tau := 0; tau <= 3; tau++ {
		m, err := NewMatcher(tau, selection.MultiMatch, VerifyExtensionShared, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		for i, s := range strs {
			for _, rid := range m.Insert(s) {
				got = append(got, normalize(rid, int32(i)))
			}
		}
		SortPairs(got)
		checkEquiv(t, fmt.Sprintf("matcher tau=%d", tau), strs, tau, got)
		if m.Len() != len(strs) {
			t.Fatalf("matcher Len=%d", m.Len())
		}
	}
}

func TestMatcherArbitraryOrderIncludesLongerStrings(t *testing.T) {
	// Insert long before short: probe must look upward in length.
	m, err := NewMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ids := m.Insert("abcdefgh"); len(ids) != 0 {
		t.Fatalf("first insert matched %v", ids)
	}
	if ids := m.Insert("abcdef"); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("shorter insert matched %v, want [0]", ids)
	}
	if ids := m.Query("abcdefg"); len(ids) != 2 {
		t.Fatalf("query matched %v, want both", ids)
	}
	if m.String(1) != "abcdef" {
		t.Fatalf("String(1) = %q", m.String(1))
	}
}

func TestMatcherQueryDoesNotInsert(t *testing.T) {
	m, _ := NewMatcher(1, selection.MultiMatch, VerifyExtensionShared, nil)
	m.Insert("hello")
	if n := m.Len(); n != 1 {
		t.Fatal("insert failed")
	}
	m.Query("hella")
	if n := m.Len(); n != 1 {
		t.Fatal("query inserted")
	}
}

// TestSelectionScanCountsOrdered pins the shapes of the paper's Figs. 12
// and 14 on the three corpus kinds internal/repro's TestExperiments draws
// them on, across each kind's threshold range: selected substrings
// Multi-Match < Position < Shift < Length, and the DP cells a self join
// computes SharePrefix < Extension < τ+1 < 2τ+1 (the Myers kernel, beyond
// the paper, counts one unit per text byte rather than DP cells and is left
// out). Each ordering is strict in every case.
func TestSelectionScanCountsOrdered(t *testing.T) {
	author := dataset.Author(5000, 1)
	authorTitle := dataset.AuthorTitle(2000, 1)
	queryLog := dataset.QueryLog(3000, 1)
	cases := []struct {
		name string
		strs []string
		taus []int
	}{
		{"Author", author, []int{1, 2, 3, 4}},
		{"AuthorTitle", authorTitle, []int{4, 6, 8}},
		{"QueryLog", queryLog, []int{2, 4, 6, 8}},
	}
	for _, c := range cases {
		for _, tau := range c.taus {
			var substrings []int64
			for _, m := range selection.Methods {
				n, _ := SelectionScan(c.strs, tau, m)
				substrings = append(substrings, n)
			}
			if !strictlyIncreasing(substrings) {
				t.Errorf("%s tau=%d: selected substrings %v, want Multi-Match < Position < Shift < Length", c.name, tau, substrings)
			}
			var cells []int64
			for _, vk := range []VerifyKind{VerifyExtensionShared, VerifyExtension, VerifyLengthAware, VerifyNaive} {
				var st metrics.Stats
				if _, err := SelfJoin(c.strs, Options{Tau: tau, Verification: vk, Stats: &st}); err != nil {
					t.Fatal(err)
				}
				cells = append(cells, st.DPCells)
			}
			if !strictlyIncreasing(cells) {
				t.Errorf("%s tau=%d: DP cells %v, want SharePrefix < Extension < tau+1 < 2tau+1", c.name, tau, cells)
			}
		}
	}
}

func strictlyIncreasing(xs []int64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

func TestSelectionScanBoundsEngineCounter(t *testing.T) {
	// The standalone scan enumerates windows for every indexed length in
	// [|s|−τ, |s|]; the engine only enumerates for length groups that exist
	// at probe time (earlier strings), so its counter is bounded by the scan.
	var strs []string
	for l := 8; l <= 14; l++ {
		for k := 0; k < 5; k++ {
			strs = append(strs, strings.Repeat(string(rune('a'+k)), l))
		}
	}
	tau := 2
	scan, _ := SelectionScan(strs, tau, selection.MultiMatch)
	st := &metrics.Stats{}
	if _, err := SelfJoin(strs, Options{Tau: tau, Stats: st}); err != nil {
		t.Fatal(err)
	}
	if st.SelectedSubstrings == 0 || st.SelectedSubstrings > scan {
		t.Fatalf("engine counted %d selected substrings, scan bound %d", st.SelectedSubstrings, scan)
	}
}

// wholeIndex builds the full Pass-Join index over strs (no eviction) and
// reports its modeled size and posting count: Table 3's figures.
func wholeIndex(t testing.TB, strs []string, tau int) (bytes, entries int64) {
	t.Helper()
	fz, err := index.BuildFrozen(strs, tau, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fz.MapBytes(), fz.Entries()
}

// Table 3 reports its figures from the frozen bulk build; they must stay
// those of the map index built string by string, whose cost model they
// are.
func TestIndexFootprint(t *testing.T) {
	strs := []string{"abcdef", "ghijkl", "mnopqr"}
	bytes, entries := wholeIndex(t, strs, 2)
	if entries != 9 {
		t.Errorf("entries=%d, want 9", entries)
	}
	if bytes <= 0 {
		t.Errorf("bytes=%d", bytes)
	}
	for _, c := range []struct {
		strs []string
		tau  int
	}{{dataset.Author(3000, 1), 4}, {dataset.AuthorTitle(500, 1), 4}, {sigCorpus(), 2}} {
		x := index.New(c.tau)
		for id, s := range c.strs {
			if len(s) > c.tau {
				x.Add(int32(id), s)
			}
		}
		if bytes, entries := wholeIndex(t, c.strs, c.tau); bytes != x.Bytes() || entries != x.Entries() {
			t.Errorf("tau=%d: footprint %d B / %d entries, map index %d B / %d", c.tau, bytes, entries, x.Bytes(), x.Entries())
		}
	}
}

// checkSortRecs is the one body every sortRecs test goes through: the
// plain comparator sortRecs replaced — (length, content, original index)
// under sort.Slice — beside sortRecs itself at every worker count, packed
// and not. All must agree on ref, orig and off, and a packed call on the
// signatures, which an unpacked one does not compute.
func checkSortRecs(t testing.TB, strs []string) {
	t.Helper()
	wantOrig := make([]int32, len(strs))
	for i := range wantOrig {
		wantOrig[i] = int32(i)
	}
	sort.Slice(wantOrig, func(a, b int) bool {
		sa, sb := strs[wantOrig[a]], strs[wantOrig[b]]
		if len(sa) != len(sb) {
			return len(sa) < len(sb)
		}
		if sa != sb {
			return sa < sb
		}
		return wantOrig[a] < wantOrig[b]
	})
	wantRef := make([]string, len(strs))
	wantSig := make([]uint64, len(strs))
	for i, o := range wantOrig {
		wantRef[i] = strs[o]
		wantSig[i] = verify.SigOf(strs[o])
	}
	wantOff := index.LengthOffsets(strs)

	input := slices.Clone(strs)
	for _, workers := range []int{1, 2, 3, 7} {
		for _, pack := range []bool{true, false} {
			ref, orig, off, sig, err := sortRecs(strs, workers, pack)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) != len(strs) || len(orig) != len(strs) {
				t.Fatalf("workers=%d pack=%t: sorted %d strings into %d / %d", workers, pack, len(strs), len(ref), len(orig))
			}
			for i := range wantRef {
				if ref[i] != wantRef[i] || orig[i] != wantOrig[i] {
					t.Fatalf("workers=%d pack=%t: position %d holds %q (orig %d), want %q (orig %d)",
						workers, pack, i, ref[i], orig[i], wantRef[i], wantOrig[i])
				}
			}
			if !slices.Equal(off, wantOff) {
				t.Fatalf("workers=%d pack=%t: offsets %v, want %v", workers, pack, off, wantOff)
			}
			if pack && !slices.Equal(sig, wantSig) {
				t.Fatalf("workers=%d: signatures differ from SigOf of the sorted strings", workers)
			}
			if !pack && sig != nil {
				t.Fatalf("workers=%d: %d signatures of an unpacked set", workers, len(sig))
			}
			if !slices.Equal(strs, input) {
				t.Fatalf("workers=%d pack=%t: the input slice was reordered", workers, pack)
			}
		}
	}
}

// TestSortRecsOrder takes checkSortRecs over the inputs the prefix key, the
// radix passes and the tie runs could get wrong, in length groups on both
// sides of radixCutoff: duplicates (whose ties fall to the original index),
// empty strings, proper prefixes, strings shorter than the key, strings
// equal in their first 8 bytes and more, and key bytes 0x00 and >= 0x80.
func TestSortRecsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corner := "\x00\x7f\x80\xffa" // the bytes a signed or padded comparison gets wrong
	pick := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = corner[rng.Intn(len(corner))]
		}
		return string(b)
	}
	repeat := func(n int, gen func() string) (out []string) {
		for range n {
			out = append(out, gen())
		}
		return out
	}
	mixed := []string{
		"", "b", "a", "", "ab", "a", "abcdefgh", "abcdefg", "abcdefgi", "abcdefghi", "abcdefghj",
		"abcdefghi", "abcdefgh\x00", "abcdefgh\xff", "\xff", "\x80", "\x7f", "\xff\x00", "\x00\xff",
		"\x80abcdefgh", "\x7fabcdefgh", "abcdefg\x80x", "abcdefg\x7fx", "abcdefgh", "b", "",
	}
	mixed = append(mixed, randomCorpus(rng, 400, 14, 2, 0.5, 2)...)
	for _, c := range []struct {
		name string
		strs []string
	}{
		{"nothing", nil},
		{"small groups of every kind", mixed},
		{"3000 strings of 12 bytes that agree on 8 to 11", repeat(3000, func() string {
			k := rng.Intn(4)
			return "prefix--" + "xyz"[:k] + pick(4-k)
		})},
		{"4000 strings of 3 bytes, mostly duplicates", repeat(4000, func() string { return pick(3) })},
		{"2000 strings of exactly 8 bytes", repeat(2000, func() string { return pick(2) + "ab" + pick(4) })},
		{"2000 strings of 9 bytes that differ in the last only", repeat(2000, func() string { return "\x00\x80\xffsame-" + pick(1) })},
		{"author names", dataset.Author(5000, 3)},
		{"groups of radixCutoff-1, radixCutoff and radixCutoff+1", slices.Concat(
			repeat(radixCutoff-1, func() string { return pick(10) }),
			repeat(radixCutoff, func() string { return pick(11) }),
			repeat(radixCutoff+1, func() string { return pick(13) }))},
	} {
		t.Run(c.name, func(t *testing.T) { checkSortRecs(t, c.strs) })
	}
}

// TestJoinLeavesInputAlone: no join reorders the slices it is handed, and
// the packed corpus does not alias them — strings cut out of a buffer 64
// times their total size are sorted and packed, the input is dropped, and
// the heap must not be holding the buffer for ref's sake.
func TestJoinLeavesInputAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strs := randomCorpus(rng, 600, 12, 3, 0.5, 2)
	rset := randomCorpus(rng, 300, 12, 3, 0.5, 2)
	wantS, wantR := slices.Clone(strs), slices.Clone(rset)
	for _, par := range []int{0, 3} {
		opt := Options{Tau: 2, Parallel: par}
		if _, err := SelfJoin(strs, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := Join(rset, strs, opt); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(strs, wantS) || !slices.Equal(rset, wantR) {
			t.Fatalf("Parallel=%d: a join reordered its input", par)
		}
	}

	const n, l, stride = 2048, 32, 64 * 32
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ref, _, _, _, err := sortRecs(cutFrom(randStr(rng, n*stride, 26), n, l, stride), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if grown := int64(heap()) - int64(before); grown > n*stride/2 {
		t.Errorf("the packed corpus of %d bytes keeps %d bytes live: ref aliases the caller's %d-byte buffer", n*l, grown, n*stride)
	}
	runtime.KeepAlive(ref)
}

// cutFrom returns n strings of l bytes, stride apart, that alias buf.
func cutFrom(buf string, n, l, stride int) []string {
	strs := make([]string, n)
	for i := range strs {
		strs[i] = buf[i*stride:][:l]
	}
	return strs
}

// TestShortStringsWindow: strings no longer than tau bypass the index and
// are verified directly, against the one contiguous id range of them inside
// the probe's length window. Half the corpus is that short (any two such
// strings match, so it is kept to 2 000 + 2 000 strings: two million pairs);
// results equal brute force in all four joins and the stream joins verify
// exactly what the serial ones do.
func TestShortStringsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const tau, half = 3, 2000
	var strs []string
	for k := 0; k < half; k++ {
		strs = append(strs, randStr(rng, rng.Intn(tau+1), 3))
	}
	for _, s := range randomCorpus(rng, half, 12, 3, 0.5, 3) {
		if len(s) <= tau {
			s += "abcd"
		}
		strs = append(strs, s)
	}
	rng.Shuffle(len(strs), func(a, b int) { strs[a], strs[b] = strs[b], strs[a] })
	rset := append(randomCorpus(rng, 300, 10, 3, 0.5, 3), "", "a", "ab", "abc", "abcd")

	// Brute force reports pairs in (R, S) order, as the joins do.
	wantSelf := make([]Pair, 0)
	for _, p := range bruteforce.SelfJoin(strs, tau) {
		wantSelf = append(wantSelf, Pair{p.R, p.S})
	}
	wantRS := make([]Pair, 0)
	for _, p := range bruteforce.Join(rset, strs, tau) {
		wantRS = append(wantRS, Pair{p.R, p.S})
	}
	var stats [2]metrics.Stats // serial, four workers
	for k, parallel := range []int{0, 4} {
		got, err := SelfJoin(strs, Options{Tau: tau, Parallel: parallel, Stats: &stats[k]})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, wantSelf) {
			t.Fatalf("self join Parallel=%d: got %d pairs, want %d", parallel, len(got), len(wantSelf))
		}
	}
	if stats[0].ShortStrings != half || stats[0].Verifications != stats[1].Verifications || stats[0].Candidates != stats[1].Candidates {
		t.Errorf("self join: serial %+v\n parallel %+v", stats[0], stats[1])
	}
	stats = [2]metrics.Stats{}
	for k, parallel := range []int{0, 4} {
		got, err := Join(rset, strs, Options{Tau: tau, Parallel: parallel, Stats: &stats[k]})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, wantRS) {
			t.Fatalf("R×S Parallel=%d: got %d pairs, want %d", parallel, len(got), len(wantRS))
		}
	}
	if stats[0].ShortStrings != half || stats[0].Verifications != stats[1].Verifications || stats[0].Candidates != stats[1].Candidates {
		t.Errorf("R×S join: serial %+v\n parallel %+v", stats[0], stats[1])
	}
}

// Every verification kind renders a distinct Fig. 14 label, and an unknown
// one still renders.
func TestVerifyKindStrings(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range VerifyKinds {
		if name := k.String(); name == "" || seen[name] {
			t.Errorf("%d: label %q empty or repeated", int(k), name)
		} else {
			seen[name] = true
		}
	}
	if VerifyKind(99).String() == "" {
		t.Error("unknown verify kind should still render")
	}
}

func TestExtensionRetriesRejectedAlignments(t *testing.T) {
	// Construct a pair that matches on multiple segments where the first
	// alignment alone may reject: identical strings match every segment.
	strs := []string{"abcabcabcabc", "abcabcabcabc", "abcabcabcabd"}
	for _, vk := range []VerifyKind{VerifyExtension, VerifyExtensionShared} {
		got, err := SelfJoin(strs, Options{Tau: 2, Verification: vk})
		if err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, vk.String(), strs, 2, got)
	}
}

func TestLargeTauRelativeToLengths(t *testing.T) {
	// tau larger than every string length: all pairs within length window.
	strs := []string{"a", "bb", "ccc", "dddd", "ab", "bc"}
	for tau := 4; tau <= 6; tau++ {
		got, err := SelfJoin(strs, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, fmt.Sprintf("bigtau=%d", tau), strs, tau, got)
	}
}
