package dataset

import (
	"math/rand"
	"strings"
)

// DNA generates n short strings over the four-letter ACGT alphabet —
// the small-alphabet/short-string regime where trie-based joins shine
// (subtries collapse after a handful of characters). A fraction of the
// corpus consists of point-mutated copies of earlier strings so joins at
// small thresholds produce non-trivial result sets.
func DNA(n int, seed int64) []string {
	const bases = "ACGT"
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for len(out) < n {
		if len(out) > 4 && rng.Float64() < dupRate {
			out = append(out, mutateAlphabet(rng, out[rng.Intn(len(out))], 1+rng.Intn(3), bases))
			continue
		}
		l := 10 + rng.Intn(15)
		var b strings.Builder
		for i := 0; i < l; i++ {
			b.WriteByte(bases[rng.Intn(len(bases))])
		}
		out = append(out, b.String())
	}
	return out
}

// mutateAlphabet applies k random edits to s, drawing substituted and
// inserted characters from the given alphabet so mutated copies stay
// inside the regime.
func mutateAlphabet(rng *rand.Rand, s string, k int, alphabet string) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 1: // delete
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case op == 1: // insert
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[p:]...)...)
		default: // substitute
			if len(b) > 0 {
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			}
		}
	}
	return string(b)
}

// Regime is one named corpus with the thresholds worth joining it at —
// the unit of the cross-engine conformance tests.
type Regime struct {
	Name string
	Strs []string
	Taus []int
}

// JoinRegimes returns the standard conformance regimes: the three paper
// corpora (short/medium/long strings over a large alphabet), the
// small-alphabet DNA regime, and the adversarial corpora. Sizes are
// test-scale; callers that need bigger corpora generate their own via
// ByName/DNA.
func JoinRegimes(seed int64) []Regime {
	regimes := []Regime{
		{Name: "author", Strs: Author(400, seed), Taus: []int{1, 2, 3}},
		{Name: "querylog", Strs: QueryLog(150, seed), Taus: []int{4, 6}},
		{Name: "authortitle", Strs: AuthorTitle(80, seed), Taus: []int{6, 8}},
		{Name: "dna", Strs: DNA(300, seed), Taus: []int{1, 2}},
	}
	for name, strs := range Adversarial() {
		regimes = append(regimes, Regime{Name: name, Strs: strs, Taus: []int{1, 2, 3}})
	}
	return regimes
}

// Adversarial returns fixed corpora that stress specific join machinery:
// long shared segments (inverted-list blowup), binary bytes, very long
// strings, mass duplicates, and the degenerate edge cases (empty corpus,
// strings shorter than the threshold, empty strings).
func Adversarial() map[string][]string {
	corpora := map[string][]string{
		"sharedSegments": {
			"aaaaaaaaaaaabbbb", "aaaaaaaaaaaacbbb", "aaaaaaaaaaaaccbb",
			"aaaaaaaaaaaacccb", "aaaaaaaaaaaacccc", "aaaaaaaaaaaabbbc",
			"aaaaaaaaaaaabbcc", "aaaaaaaaaaaabccc", "baaaaaaaaaaabbbb",
		},
		"binaryBytes": {
			"\x00\x01\x02\x03\x04", "\x00\x01\x02\x03\x05", "\xff\xfe\xfd\xfc\xfb",
			"\x00\x01\x02\x04\x04", string([]byte{0, 0, 0, 0, 0}),
		},
		"massDuplicates": {
			"dup", "dup", "dup", "dup", "dup", "dup", "dop", "dap", "dup!", "du",
		},
		"empty": {},
		// Every string shorter than tau >= 2: all of them bypass segment
		// indexing and gram extraction entirely.
		"shorterThanTau": {"a", "b", "", "ab", "xy", "a", ""},
	}
	long := make([]string, 0, 4)
	var b strings.Builder
	for i := 0; i < 400; i++ {
		b.WriteByte(byte('a' + i%7))
	}
	base := b.String()
	long = append(long, base, base[:399]+"x", "x"+base[:398]+"yz", base[:200]+base[:200])
	corpora["veryLong"] = long
	return corpora
}
