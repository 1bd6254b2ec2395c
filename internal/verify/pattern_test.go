package verify

import (
	"math/rand"
	"strings"
	"testing"

	"passjoin/internal/dataset"
)

// TestDistPatternMatchesDistMyers checks that the amortized pattern form
// agrees with the per-pair kernel (and hence with the reference DP) across
// random pairs, thresholds, and pattern lengths on both sides of the
// 64-char kernel limit.
func TestDistPatternMatchesDistMyers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var v Verifier
	var pat Pattern
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return string(b)
	}
	for iter := 0; iter < 3000; iter++ {
		q := randStr(rng.Intn(90))
		pat.Set(q)
		for k := 0; k < 3; k++ {
			b := randStr(rng.Intn(90))
			tau := rng.Intn(6)
			want := minInt(EditDistance(q, b), tau+1)
			if got := v.DistPattern(&pat, b, tau); got != want {
				t.Fatalf("DistPattern(%q,%q,%d) = %d, want %d", q, b, tau, got, want)
			}
		}
	}
}

// TestPatternSparseClear reuses one Pattern across many distinct queries;
// stale occurrence bits from a previous pattern would corrupt later
// distances.
func TestPatternSparseClear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var v Verifier
	var pat Pattern
	alphabet := "abcdefghijklmnopqrstuvwxyz0123456789"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for iter := 0; iter < 500; iter++ {
		q := randStr(1 + rng.Intn(64))
		pat.Set(q)
		pat.Set(q) // same-string no-op must not disturb the table
		b := randStr(1 + rng.Intn(64))
		if got, want := v.DistPattern(&pat, b, 64), EditDistance(q, b); got != want {
			t.Fatalf("iter %d: DistPattern(%q,%q) = %d, want %d", iter, q, b, got, want)
		}
	}
	// Long pattern (no table) followed by a short one: the long Set must not
	// leave the word path disabled or the table dirty.
	pat.Set(strings.Repeat("x", 200))
	pat.Set("abc")
	if got := v.DistPattern(&pat, "abd", 2); got != 1 {
		t.Fatalf("after long/short pattern switch: got %d, want 1", got)
	}
}

// TestMyersLongStringsUseBand is the regression test for the long-string
// route: strings far beyond the 64-char kernel limit (the ~400-char
// authortitle regime) must verify exactly through the banded kernel, both
// on the unbounded entry point and on every thresholded one.
func TestMyersLongStringsUseBand(t *testing.T) {
	strs := dataset.AuthorTitle(600, 3)
	var long []string
	for _, s := range strs {
		if len(s) >= 400 {
			long = append(long, s[:400])
		}
	}
	if len(long) < 2 {
		t.Fatalf("authortitle regime produced only %d strings >= 400 chars", len(long))
	}
	// Build near pairs: a 400-char string and lightly edited copies.
	rng := rand.New(rand.NewSource(5))
	var v Verifier
	var pat Pattern
	for _, s := range long {
		edited := []byte(s)
		for k := 0; k < 3; k++ {
			edited[rng.Intn(len(edited))] = byte('a' + rng.Intn(26))
		}
		e := string(edited)
		want := EditDistance(s, e)
		if got := myersExact(s, e); got != want {
			t.Fatalf("DistMyers long, full band: got %d, want %d", got, want)
		}
		for tau := 0; tau <= want+2; tau++ {
			wantT := minInt(want, tau+1)
			if got := v.DistMyers(s, e, tau); got != wantT {
				t.Fatalf("DistMyers long tau=%d: got %d, want %d", tau, got, wantT)
			}
			pat.Set(s)
			if got := v.DistPattern(&pat, e, tau); got != wantT {
				t.Fatalf("DistPattern long tau=%d: got %d, want %d", tau, got, wantT)
			}
		}
	}
	// Dissimilar long pair: the banded fallback at a full band is exact.
	a, b := long[0], long[1]
	if got, want := myersExact(a, b), EditDistance(a, b); got != want {
		t.Fatalf("DistMyers dissimilar long, full band: got %d, want %d", got, want)
	}
}

// TestVerificationScratchAllocs asserts the pooled verification scratch
// performs zero allocations at steady state: the banded kernels and the
// pattern-amortized bit-parallel kernel.
func TestVerificationScratchAllocs(t *testing.T) {
	var v Verifier
	var pat Pattern
	a := strings.Repeat("similarity", 4)    // 40 chars
	b := strings.Repeat("similarite", 4)    // 4 substitutions
	long := strings.Repeat("pass-join", 50) // 450 chars
	longB := "x" + long[1:]
	// Warm the pooled buffers once.
	v.Dist(a, b, 4)
	pat.Set(a)
	v.DistPattern(&pat, b, 4)
	v.Dist(long, longB, 3)

	check := func(name string, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	check("Dist", func() { v.Dist(a, b, 4) })
	check("DistNaive", func() { v.DistNaive(a, b, 4) })
	check("DistPattern", func() { v.DistPattern(&pat, b, 4) })
	check("DistPattern/long", func() {
		pat.Set(long)
		v.DistPattern(&pat, longB, 3)
	})
	check("Pattern.Set", func() { pat.Set(a); pat.Set(b) })
}
