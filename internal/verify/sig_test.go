package verify

import (
	"math/rand"
	"strings"
	"testing"
)

// sigCounts builds an expected signature from bucket counts: bucket b of
// the map holds counts[b] bytes, stored modulo 4 with the low bit at bit b
// and the high bit at bit 32+b.
func sigCounts(counts map[int]int) uint64 {
	var s uint64
	for b, n := range counts {
		s |= uint64(n&1)<<b | uint64(n>>1&1)<<(32+b)
	}
	return s
}

// sigCounter reads bucket b's two-bit counter back out of a signature.
func sigCounter(s uint64, b int) int {
	return int(s>>b&1 | s>>(32+b)&1<<1)
}

func TestSigOfTable(t *testing.T) {
	cases := []struct {
		name string
		s    string
		want uint64
	}{
		{"empty", "", 0},
		{"single byte", "a", sigCounts(map[int]int{1: 1})},
		{"byte twice", "aa", sigCounts(map[int]int{1: 2})},
		{"byte three times", "aaa", sigCounts(map[int]int{1: 3})},
		{"byte four times wraps to zero", "aaaa", 0},
		{"byte five times reads one", "aaaaa", sigCounts(map[int]int{1: 1})},
		{"byte 70 times reads two", strings.Repeat("a", 70), sigCounts(map[int]int{1: 2})},
		{"a wrap does not carry into the next bucket", "aaaab", sigCounts(map[int]int{2: 1})},
		{"nul byte is bucket 0", "\x00", sigCounts(map[int]int{0: 1})},
		{"top bucket wraps inside the word", strings.Repeat("\xff", 7), sigCounts(map[int]int{31: 3})},
		{"high bytes fold onto low five bits", "\x80\xff", sigCounts(map[int]int{0: 1, 31: 1})},
		{"high byte collides with ascii", "\xe1a", sigCounts(map[int]int{1: 2})},
		// '-' is 0x2d and 'm' is 0x6d: both bucket 13.
		{"dash and m collide", "-m", sigCounts(map[int]int{13: 2})},
		// '1' is 0x31 and 'q' is 0x71: both bucket 17; 'Q' too.
		{"digit and letters collide", "1qQ", sigCounts(map[int]int{17: 3})},
		{"case folds", "aA", sigCounts(map[int]int{1: 2})},
		{"distinct buckets", "abc", sigCounts(map[int]int{1: 1, 2: 1, 3: 1})},
		{"order does not matter", "cabbac", sigCounts(map[int]int{1: 2, 2: 2, 3: 2})},
	}
	for _, c := range cases {
		if got := SigOf(c.s); got != c.want {
			t.Errorf("%s: SigOf(%q) = %#016x, want %#016x", c.name, c.s, got, c.want)
		}
	}
}

func TestSigs(t *testing.T) {
	strs := []string{"", "kaushik chakrab", "caushik chakrabar", "\xff\xff"}
	got := make([]uint64, len(strs))
	Sigs(got, strs)
	for i, s := range strs {
		if got[i] != SigOf(s) {
			t.Errorf("Sigs[%d] = %#x, SigOf(%q) = %#x", i, got[i], s, SigOf(s))
		}
	}
}

// naiveSigDist is SigDist one bucket at a time: the circular distance of
// the two counters, summed.
func naiveSigDist(a, b uint64) int {
	sum := 0
	for bucket := 0; bucket < 32; bucket++ {
		d := sigCounter(a, bucket) - sigCounter(b, bucket)
		if d < 0 {
			d += 4
		}
		sum += minInt(d, 4-d)
	}
	return sum
}

func TestSigDist(t *testing.T) {
	// Every pair of counter values, in the lowest and the highest bucket.
	wantCircular := [4][4]int{{0, 1, 2, 1}, {1, 0, 1, 2}, {2, 1, 0, 1}, {1, 2, 1, 0}}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for _, bucket := range []int{0, 31} {
				a, b := sigCounts(map[int]int{bucket: x}), sigCounts(map[int]int{bucket: y})
				if got := SigDist(a, b); got != wantCircular[x][y] {
					t.Errorf("SigDist of counters %d and %d in bucket %d = %d, want %d", x, y, bucket, got, wantCircular[x][y])
				}
			}
		}
	}
	if got := SigDist(0, 0xffffffff00000000); got != 64 {
		t.Errorf("SigDist(all zeros, all twos) = %d, want 64", got)
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 20000; iter++ {
		a, b := rng.Uint64(), rng.Uint64()
		if iter%4 == 0 {
			b = a ^ 1<<rng.Intn(64) // neighbours: one counter differs
		}
		got := SigDist(a, b)
		if want := naiveSigDist(a, b); got != want {
			t.Fatalf("SigDist(%#x, %#x) = %d, bucket by bucket %d", a, b, got, want)
		}
		if back := SigDist(b, a); back != got {
			t.Fatalf("SigDist(%#x, %#x) = %d but %d the other way round", a, b, got, back)
		}
		if self := SigDist(a, a); self != 0 {
			t.Fatalf("SigDist(%#x, itself) = %d", a, self)
		}
	}
}

// checkSigBound asserts the filter's soundness condition for one pair.
func checkSigBound(t *testing.T, a, b string) {
	t.Helper()
	dist := SigDist(SigOf(a), SigOf(b))
	if ed := EditDistance(a, b); dist > 2*ed {
		t.Fatalf("SigDist(SigOf(%q), SigOf(%q)) = %d, edit distance is %d", a, b, dist, ed)
	}
}

// TestSigBoundProperty checks SigDist(sig(a), sig(b)) <= 2*ed(a,b) on
// random pairs over alphabets that do and do not collide under &31, both
// unrelated and a few edits apart (where the bound is tight), at lengths
// from empty to 900 bytes — every counter has wrapped many times over by
// then, which is where a saturating code stopped telling strings apart.
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
		length, maxEdits := func() int { return rng.Intn(24) }, 4
		if iter%20 == 0 {
			length, maxEdits = func() int { return 200 + rng.Intn(701) }, 12
		}
		a := randStr(alpha, length())
		checkSigBound(t, string(a), string(randStr(alpha, length())))
		b := append([]byte(nil), a...)
		for e := rng.Intn(maxEdits); e > 0; e-- {
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
// strings: one edit operation moves SigDist by at most two.
func FuzzSigBound(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "")
	f.Add("", "aa")
	f.Add("aaaa", "aa")
	f.Add("aaaaa", "a")
	f.Add("-m", "mm")
	f.Add("\x00\xff", "\xff\x00\x80")
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40))
	f.Add(strings.Repeat("abcdefg ", 60), strings.Repeat("abcdefg ", 59)+"abcdxfg")
	f.Add(strings.Repeat("pass join ", 90), strings.Repeat("pass-join ", 88))
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 900 || len(b) > 900 {
			t.Skip()
		}
		checkSigBound(t, a, b)
	})
}
