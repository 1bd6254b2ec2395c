package verify

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// sigBits builds an expected signature from bucket numbers: once lists the
// buckets holding at least one byte, twice those holding at least two.
func sigBits(once, twice []int) uint64 {
	var s uint64
	for _, b := range once {
		s |= 1 << b
	}
	for _, b := range twice {
		s |= 1 << (32 + b)
	}
	return s
}

func TestSigOfTable(t *testing.T) {
	cases := []struct {
		name string
		s    string
		want uint64
	}{
		{"empty", "", 0},
		{"single byte", "a", sigBits([]int{1}, nil)},
		{"byte twice", "aa", sigBits([]int{1}, []int{1})},
		{"byte three times saturates", "aaa", sigBits([]int{1}, []int{1})},
		{"byte 70 times saturates", strings.Repeat("a", 70), sigBits([]int{1}, []int{1})},
		{"nul byte is bucket 0", "\x00", sigBits([]int{0}, nil)},
		{"high bytes fold onto low five bits", "\x80\xff", sigBits([]int{0, 31}, nil)},
		{"high byte collides with ascii", "\xe1a", sigBits([]int{1}, []int{1})},
		// '-' is 0x2d and 'm' is 0x6d: both bucket 13.
		{"dash and m collide", "-m", sigBits([]int{13}, []int{13})},
		// '1' is 0x31 and 'q' is 0x71: both bucket 17; 'Q' too.
		{"digit and letters collide", "1qQ", sigBits([]int{17}, []int{17})},
		{"case folds", "aA", sigBits([]int{1}, []int{1})},
		{"distinct buckets", "abc", sigBits([]int{1, 2, 3}, nil)},
		{"order does not matter", "cabbac", sigBits([]int{1, 2, 3}, []int{1, 2, 3})},
	}
	for _, c := range cases {
		if got := SigOf(c.s); got != c.want {
			t.Errorf("%s: SigOf(%q) = %#016x, want %#016x", c.name, c.s, got, c.want)
		}
	}
	// The second-level bit never appears without its first-level bit.
	for _, c := range cases {
		if s := SigOf(c.s); s>>32&^s != 0 {
			t.Errorf("%s: SigOf(%q) = %#016x has a twice bit without its once bit", c.name, c.s, s)
		}
	}
}

func TestSigs(t *testing.T) {
	strs := []string{"", "kaushik chakrab", "caushik chakrabar", "\xff\xff"}
	got := Sigs(strs)
	if len(got) != len(strs) {
		t.Fatalf("Sigs returned %d words for %d strings", len(got), len(strs))
	}
	for i, s := range strs {
		if got[i] != SigOf(s) {
			t.Errorf("Sigs[%d] = %#x, SigOf(%q) = %#x", i, got[i], s, SigOf(s))
		}
	}
}

// checkSigBound asserts the filter's soundness condition for one pair.
func checkSigBound(t *testing.T, a, b string) {
	t.Helper()
	diff := bits.OnesCount64(SigOf(a) ^ SigOf(b))
	if ed := EditDistance(a, b); diff > 2*ed {
		t.Fatalf("SigOf(%q)^SigOf(%q) has %d bits set, edit distance is %d", a, b, diff, ed)
	}
}

// TestSigBoundProperty checks popcount(sig(a)^sig(b)) <= 2*ed(a,b) on
// random pairs over alphabets that do and do not collide under &31, both
// unrelated and a few edits apart (where the bound is tight).
func TestSigBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alphabets := []string{
		"ab",
		"abcdefghijklmnopqrstuvwxyz",
		"aA1qQ-m \x00\x80\xe1\xff",
	}
	randStr := func(alpha string, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return b
	}
	for iter := 0; iter < 4000; iter++ {
		alpha := alphabets[iter%len(alphabets)]
		a := randStr(alpha, rng.Intn(24))
		checkSigBound(t, string(a), string(randStr(alpha, rng.Intn(24))))
		b := append([]byte(nil), a...)
		for e := rng.Intn(4); e > 0; e-- {
			switch op := rng.Intn(3); {
			case op == 0 && len(b) > 0:
				b[rng.Intn(len(b))] = alpha[rng.Intn(len(alpha))]
			case op == 1 && len(b) > 0:
				i := rng.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			default:
				i := rng.Intn(len(b) + 1)
				b = append(b[:i], append([]byte{alpha[rng.Intn(len(alpha))]}, b[i:]...)...)
			}
		}
		checkSigBound(t, string(a), string(b))
	}
}

// FuzzSigBound asserts the signature filter's soundness on arbitrary byte
// strings: signatures differ in at most two bits per edit operation.
func FuzzSigBound(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "")
	f.Add("", "aa")
	f.Add("aaaa", "aa")
	f.Add("-m", "mm")
	f.Add("\x00\xff", "\xff\x00\x80")
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40))
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 300 || len(b) > 300 {
			t.Skip()
		}
		checkSigBound(t, a, b)
	})
}
