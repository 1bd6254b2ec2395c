package verify

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"passjoin/internal/metrics"
)

func TestEditDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		// §2: ed("kaushic chaduri", "kaushuk chadhui") = 4.
		{"kaushic chaduri", "kaushuk chadhui", 4},
		{"vldb", "pvldb", 1},
		{"vankatesh", "avataresha", 5},
		{"kaushik chakrab", "caushik chakrabar", 3},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a := randomString(rng, rng.Intn(30), 4)
		b := randomString(rng, rng.Intn(30), 4)
		if EditDistance(a, b) != EditDistance(b, a) {
			t.Fatalf("asymmetric for %q,%q", a, b)
		}
	}
}

func TestEditDistanceTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := randomString(rng, rng.Intn(15), 3)
		b := randomString(rng, rng.Intn(15), 3)
		c := randomString(rng, rng.Intn(15), 3)
		if EditDistance(a, c) > EditDistance(a, b)+EditDistance(b, c) {
			t.Fatalf("triangle inequality violated for %q,%q,%q", a, b, c)
		}
	}
}

// Both banded verifiers must agree with the reference on min(ed, tau+1).
func TestBandedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var v Verifier
	for i := 0; i < 3000; i++ {
		a := randomString(rng, rng.Intn(25), 3)
		b := mutate(rng, a, rng.Intn(8), 3)
		tau := rng.Intn(7)
		want := minInt(EditDistance(a, b), tau+1)
		if got := v.Dist(a, b, tau); got != want {
			t.Fatalf("Dist(%q,%q,%d) = %d, want %d", a, b, tau, got, want)
		}
		if got := v.DistNaive(a, b, tau); got != want {
			t.Fatalf("DistNaive(%q,%q,%d) = %d, want %d", a, b, tau, got, want)
		}
	}
}

func TestBandedBothOrientations(t *testing.T) {
	var v Verifier
	// |a| > |b| exercises the negative-Δ band.
	a, b := "caushik chakrabar", "kaushuk chadhui"
	for tau := 0; tau <= 8; tau++ {
		want := minInt(EditDistance(a, b), tau+1)
		if got := v.Dist(a, b, tau); got != want {
			t.Errorf("tau=%d forward: got %d want %d", tau, got, want)
		}
		if got := v.Dist(b, a, tau); got != want {
			t.Errorf("tau=%d reverse: got %d want %d", tau, got, want)
		}
	}
}

func TestDistTauZero(t *testing.T) {
	var v Verifier
	if got := v.Dist("abc", "abc", 0); got != 0 {
		t.Errorf("equal strings tau=0: got %d", got)
	}
	if got := v.Dist("abc", "abd", 0); got != 1 {
		t.Errorf("unequal strings tau=0: got %d", got)
	}
	if got := v.Dist("abc", "abcd", 0); got != 1 {
		t.Errorf("len diff tau=0: got %d", got)
	}
}

func TestDistEmptyStrings(t *testing.T) {
	var v Verifier
	if got := v.Dist("", "", 3); got != 0 {
		t.Errorf("empty/empty: %d", got)
	}
	if got := v.Dist("", "ab", 3); got != 2 {
		t.Errorf("empty/ab: %d", got)
	}
	if got := v.Dist("ab", "", 3); got != 2 {
		t.Errorf("ab/empty: %d", got)
	}
	if got := v.Dist("", "abcd", 3); got != 4 {
		t.Errorf("empty/abcd: %d", got)
	}
}

// The length-aware band computes at most (tau+1)·(|a|+1) cells while the
// naive band computes up to (2tau+1)·(|a|+1); §5.1's complexity claim.
func TestLengthAwareComputesFewerCells(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var totalLA, totalNaive int64
	for i := 0; i < 500; i++ {
		a := randomString(rng, 20+rng.Intn(20), 4)
		b := mutate(rng, a, rng.Intn(5), 4)
		tau := 4
		stLA := &metrics.Stats{}
		stN := &metrics.Stats{}
		vLA := Verifier{Stats: stLA}
		vN := Verifier{Stats: stN}
		vLA.Dist(a, b, tau)
		vN.DistNaive(a, b, tau)
		m := minInt(len(a), len(b))
		if stLA.DPCells > int64((tau+1)*(maxInt(len(a), len(b))+1)) {
			t.Fatalf("length-aware computed %d cells for |a|=%d |b|=%d tau=%d", stLA.DPCells, len(a), len(b), m)
		}
		totalLA += stLA.DPCells
		totalNaive += stN.DPCells
	}
	if totalLA >= totalNaive {
		t.Fatalf("length-aware (%d cells) should compute fewer cells than naive (%d)", totalLA, totalNaive)
	}
}

func TestEarlyTerminationFires(t *testing.T) {
	st := &metrics.Stats{}
	v := Verifier{Stats: st}
	// Completely different strings of equal length: expected distance blows
	// up within a few rows.
	a := strings.Repeat("a", 40)
	b := strings.Repeat("z", 40)
	if got := v.Dist(a, b, 3); got != 4 {
		t.Fatalf("Dist = %d, want 4", got)
	}
	if st.EarlyTerms == 0 {
		t.Error("expected early termination")
	}
	if st.DPCells >= 40*4 {
		t.Errorf("early termination computed too many cells: %d", st.DPCells)
	}
}

// The paper's Figure 7 walk-through: verifying r="kaushuk chadhui" against
// s="caushik chakrabar" with tau=3 stops after row 6 under the
// expected-edit-distance rule.
func TestPaperFigure7(t *testing.T) {
	st := &metrics.Stats{}
	v := Verifier{Stats: st}
	r := "kaushuk chadhui"
	s := "caushik chakrabar"
	if got := v.Dist(r, s, 3); got != 4 {
		t.Fatalf("Dist = %d, want 4 (not similar at tau=3)", got)
	}
	if st.EarlyTerms != 1 {
		t.Fatalf("expected early termination, got %d", st.EarlyTerms)
	}
	// 6 rows × at most 4 cells per row.
	if st.DPCells > 6*4 {
		t.Errorf("expected at most 24 cells, computed %d", st.DPCells)
	}
}

func TestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		tau := rng.Intn(5)
		target := randomString(rng, 5+rng.Intn(20), 4)
		var inc Incremental
		inc.Reset(target, tau)
		// A batch of same-length sources sharing prefixes (sorted, like an
		// inverted list).
		m := maxInt(1, len(target)-tau+rng.Intn(2*tau+1))
		var sources []string
		base := randomString(rng, m, 4)
		for i := 0; i < 12; i++ {
			sources = append(sources, mutateFixedLen(rng, base, rng.Intn(4), 4))
		}
		sortStrings(sources)
		for _, src := range sources {
			want := minInt(EditDistance(src, target), tau+1)
			if got := inc.Dist(src); got != want {
				t.Fatalf("tau=%d target=%q src=%q: got %d want %d", tau, target, src, got, want)
			}
		}
	}
}

func TestIncrementalSharesRows(t *testing.T) {
	st := &metrics.Stats{}
	var inc Incremental
	inc.Stats = st
	inc.Reset("abcdefghij", 2)
	inc.Dist("abcdefghix")
	if st.SharedRows != 0 {
		t.Fatalf("first call shared %d rows", st.SharedRows)
	}
	inc.Dist("abcdefghiy") // shares 9-char prefix
	if st.SharedRows < 9 {
		t.Errorf("expected at least 9 shared rows, got %d", st.SharedRows)
	}
}

// TestIncrementalSlabGrowth: an Incremental keeps |r|+1 rows, and a join
// hands it sources in ascending length, so a slab grown to exactly what the
// current length needs is reallocated at every one of them. Over lengths
// 1..200 the allocations must be logarithmic in the final size — the slab
// doubling from its first row to 201 rows of τ+2 cells, and the term row
// once per band width up to τ+1 — not one per length.
func TestIncrementalSlabGrowth(t *testing.T) {
	const tau, maxLen = 8, 200
	s := strings.Repeat("abcde", maxLen/5)
	allocs := testing.AllocsPerRun(5, func() {
		var inc Incremental
		for m := 1; m <= maxLen; m++ {
			inc.Reset(s[:m], tau)
			if d := inc.Dist(s[:m]); d != 0 {
				t.Fatalf("length %d: distance %d to itself", m, d)
			}
		}
	})
	if limit := float64(bits.Len((maxLen+1)*(tau+2)) + tau + 1); allocs > limit {
		t.Errorf("%v allocations over sources of length 1..%d, want at most %v", allocs, maxLen, limit)
	}
}

func TestIncrementalLengthChangeInvalidatesCache(t *testing.T) {
	var inc Incremental
	inc.Reset("abcdef", 3)
	if got := inc.Dist("abcdef"); got != 0 {
		t.Fatalf("same string: %d", got)
	}
	if got := inc.Dist("abcde"); got != 1 {
		t.Fatalf("shorter source: %d", got)
	}
	if got := inc.Dist("abcdefxx"); got != 2 {
		t.Fatalf("longer source: %d", got)
	}
}

func TestIncrementalEarlyRowReuse(t *testing.T) {
	var inc Incremental
	inc.Reset(strings.Repeat("z", 12), 2)
	a := "aaaaaaaaaaaa"
	if got := inc.Dist(a); got != 3 {
		t.Fatalf("first: %d", got)
	}
	// Same prefix up to the early-termination row: must still answer tau+1.
	b := "aaaaaaaaaazz"
	if got, want := inc.Dist(b), minInt(EditDistance(b, strings.Repeat("z", 12)), 3); got != want {
		t.Fatalf("second: got %d want %d", got, want)
	}
}

func TestWithin(t *testing.T) {
	if !Within("vldb", "pvldb", 1) {
		t.Error("vldb~pvldb within 1")
	}
	if Within("vldb", "sigmod", 2) {
		t.Error("vldb!~sigmod within 2")
	}
}

// quick property: Dist == min(ed, tau+1) on random mutated pairs.
func TestQuickDist(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var v Verifier
	f := func(seed int64, nEdits uint8, tauRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomString(r, 1+r.Intn(30), 3)
		b := mutate(r, a, int(nEdits%6), 3)
		tau := int(tauRaw % 6)
		return v.Dist(a, b, tau) == minInt(EditDistance(a, b), tau+1)
	}
	cfg := &quick.Config{MaxCount: 1500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// quick property: incremental == from-scratch over random sorted batches.
func TestQuickIncremental(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tau := r.Intn(4)
		target := randomString(r, 4+r.Intn(12), 3)
		m := maxInt(1, len(target)+r.Intn(2*tau+1)-tau)
		var inc Incremental
		inc.Reset(target, tau)
		base := randomString(r, m, 3)
		for i := 0; i < 8; i++ {
			src := mutateFixedLen(r, base, r.Intn(3), 3)
			if inc.Dist(src) != minInt(EditDistance(src, target), tau+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// --- helpers ---

func randomString(rng *rand.Rand, n, alpha int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(alpha))
	}
	return string(b)
}

// mutate applies k random single-character edits to s.
func mutate(rng *rand.Rand, s string, k, alpha int) string {
	b := []byte(s)
	for e := 0; e < k; e++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0: // substitution
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(alpha))
		case op == 1 && len(b) > 0: // deletion
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default: // insertion
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{byte('a' + rng.Intn(alpha))}, b[i:]...)...)
		}
	}
	return string(b)
}

// mutateFixedLen applies k substitutions only (length preserved).
func mutateFixedLen(rng *rand.Rand, s string, k, alpha int) string {
	b := []byte(s)
	for e := 0; e < k && len(b) > 0; e++ {
		b[rng.Intn(len(b))] = byte('a' + rng.Intn(alpha))
	}
	return string(b)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
