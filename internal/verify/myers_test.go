package verify

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// myersExact is DistMyers at a threshold no distance can exceed, the
// longer length: the exact edit distance, from the one-word kernel when the
// shorter string fits in a word and the banded verifier otherwise.
func myersExact(a, b string) int {
	var v Verifier
	return v.DistMyers(a, b, max(len(a), len(b)))
}

func TestMyersKnownPairs(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"kaushic chaduri", "kaushuk chadhui", 4},
		{"a", "a", 0},
		{"a", "b", 1},
		{strings.Repeat("x", 64), strings.Repeat("x", 64), 0},
		{strings.Repeat("x", 64), strings.Repeat("y", 64), 64},
	}
	for _, c := range cases {
		if got := myersExact(c.a, c.b); got != c.want {
			t.Errorf("DistMyers(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMyersMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for i := 0; i < 3000; i++ {
		a := randomString(rng, rng.Intn(70), 4)
		b := mutate(rng, a, rng.Intn(10), 4)
		want := EditDistance(a, b)
		if got := myersExact(a, b); got != want {
			t.Fatalf("DistMyers(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMyersExactly64(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	// The word boundary: pairs around 63, 64 and 65 characters fall on both
	// sides of it (the one-word kernel takes a shorter string of at most 64,
	// the banded fallback a longer one).
	for _, n := range []int{63, 64, 65} {
		for i := 0; i < 200; i++ {
			a := randomString(rng, n, 3)
			b := mutate(rng, a, rng.Intn(6), 3)
			if got, want := myersExact(a, b), EditDistance(a, b); got != want {
				t.Fatalf("len-%d DistMyers(%q,%q) = %d, want %d", n, a, b, got, want)
			}
		}
	}
}

func TestMyersLongFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	a := randomString(rng, 150, 3)
	b := mutate(rng, a, 5, 3)
	if got, want := myersExact(a, b), EditDistance(a, b); got != want {
		t.Fatalf("long DistMyers = %d, want %d", got, want)
	}
}

func TestDistMyersThresholded(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	var v Verifier
	for i := 0; i < 2000; i++ {
		a := randomString(rng, rng.Intn(80), 3)
		b := mutate(rng, a, rng.Intn(8), 3)
		tau := rng.Intn(6)
		want := minInt(EditDistance(a, b), tau+1)
		if got := v.DistMyers(a, b, tau); got != want {
			t.Fatalf("DistMyers(%q,%q,%d) = %d, want %d", a, b, tau, got, want)
		}
	}
}

func TestDistMyersEdgeCases(t *testing.T) {
	var v Verifier
	if got := v.DistMyers("", "", 2); got != 0 {
		t.Errorf("empty: %d", got)
	}
	if got := v.DistMyers("", "abcd", 2); got != 3 {
		t.Errorf("len filter: %d", got)
	}
	if got := v.DistMyers("ab", "ba", 0); got != 1 {
		t.Errorf("tau=0: %d", got)
	}
}

func TestQuickMyers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomString(rng, rng.Intn(64)+1, 2)
		b := randomString(rng, rng.Intn(70), 2)
		return myersExact(a, b) == EditDistance(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
