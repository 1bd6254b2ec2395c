package verify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"passjoin/internal/metrics"
)

// checkKernelPair runs one pair through the kernel and through the
// reference it replaced, both banded forms and both orientations, and
// requires the same distance — the reference DP's, capped — and the same
// work counters. The reference gets the threshold the kernel clamps to: it
// sizes its band by the threshold alone, so past the string lengths it
// computes cells outside the matrix's reach (and past a few million, none
// at all).
func checkKernelPair(t testing.TB, a, b string, tau int) {
	t.Helper()
	want := minInt(EditDistance(a, b), tau+1)
	rtau := minInt(tau, maxInt(len(a), len(b)))
	for _, o := range [][2]string{{a, b}, {b, a}} {
		var gst, wst metrics.Stats
		got, ref := Verifier{Stats: &gst}, refVerifier{Stats: &wst}
		if g, w := got.Dist(o[0], o[1], tau), ref.Dist(o[0], o[1], rtau); g != w || g != want {
			t.Fatalf("Dist(%q,%q,%d) = %d, reference %d, full DP %d", o[0], o[1], tau, g, w, want)
		}
		if gst != wst {
			t.Fatalf("Dist(%q,%q,%d) counted %+v, reference %+v", o[0], o[1], tau, gst, wst)
		}
		if g, w := got.DistNaive(o[0], o[1], tau), ref.DistNaive(o[0], o[1], rtau); g != w || g != want {
			t.Fatalf("DistNaive(%q,%q,%d) = %d, reference %d, full DP %d", o[0], o[1], tau, g, w, want)
		}
		if gst != wst {
			t.Fatalf("DistNaive(%q,%q,%d) counted %+v, reference %+v", o[0], o[1], tau, gst, wst)
		}
	}
}

// checkKernelLists runs inverted lists of sources through one Incremental
// and one reference, a Reset before each list, and requires the same
// distance and the same counters from every source. The reference fixes its
// threshold at Reset, before it has seen a source, so where the kernel
// clamps (tau past both lengths) its wider band counts more cells; rows
// shared and early terminations agree even there.
func checkKernelLists(t testing.TB, target string, tau int, lists ...[]string) {
	t.Helper()
	var gst, wst metrics.Stats
	got, ref := Incremental{Stats: &gst}, refIncremental{Stats: &wst}
	for li, list := range lists {
		got.Reset(target, tau)
		ref.Reset(target, tau)
		for si, src := range list {
			gst, wst = metrics.Stats{}, metrics.Stats{}
			want := minInt(EditDistance(src, target), tau+1)
			if g, w := got.Dist(src), ref.Dist(src); g != w || g != want {
				t.Fatalf("list %d source %d: Incremental(%q vs %q, tau=%d) = %d, reference %d, full DP %d",
					li, si, src, target, tau, g, w, want)
			}
			if tau > maxInt(len(src), len(target)) {
				gst.DPCells, wst.DPCells = 0, 0
			}
			if gst != wst {
				t.Fatalf("list %d source %d (%q vs %q, tau=%d): counted %+v, reference %+v",
					li, si, src, target, tau, gst, wst)
			}
		}
	}
}

// TestBandedKernelCorners is ROADMAP's corner set: empty strings, lengths
// at or under tau, the 32- and 64-byte word boundaries, non-ASCII bytes,
// tau 0, tau at or past the lengths, and a wide band on long strings.
func TestBandedKernelCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type kernelCase struct {
		a, b string
		taus []int
	}
	cases := []kernelCase{
		{"", "", []int{0, 1, 5}},
		{"", "abc", []int{0, 2, 3, 4}},
		{"a", "b", []int{0, 1, 2, 9}},
		{"ab", "ba", []int{0, 1, 2, 3, 4}},
		{"kitten", "sitting", []int{0, 1, 2, 3, 6, 7, 8, 20}},
		{"caushik chakrabar", "kaushuk chadhui", []int{0, 2, 5, 8, 17, 18}},
		{"na\xc3\xafve caf\xc3\xa9", "naive cafe\xcc\x81", []int{0, 1, 3, 4, 5, 12}},
		{"\x00\xff\x80\x7f", "\xff\x00\x7f\x80\x80", []int{0, 1, 4, 5, 6}},
	}
	for _, l := range []int{31, 32, 33, 63, 64, 65} {
		a := randomString(rng, l, 4)
		cases = append(cases,
			kernelCase{a, mutate(rng, a, 3, 4), []int{0, 1, 3, 8, l - 1, l, l + 1, 2 * l}},
			kernelCase{a, randomString(rng, l+2, 4), []int{2, 8, l + 2}},
		)
	}
	// The word kernel's edges. Bands of 63, 64 and 65 columns at Δ = −τ,
	// −1, 0, 1 and τ: the last width the word holds, and the first the
	// scalar cells take over.
	for _, tau := range []int{62, 63, 64, 65} {
		for _, d := range []int{-tau, -1, 0, 1, tau} {
			if w := (tau-d)/2 + (tau+d)/2 + 1; w < 63 || w > 65 {
				continue
			}
			a := randomString(rng, 100, 4)
			b := a[:100-max(0, -d)] + randomString(rng, max(0, d), 4)
			cases = append(cases,
				kernelCase{a, b, []int{tau}},
				kernelCase{a, mutateFixedLen(rng, b, 20, 4), []int{tau}},
				kernelCase{a, randomString(rng, len(b), 4), []int{tau}},
			)
		}
	}
	// Sources and targets on either side of one and two eight-byte loads,
	// and of the word: the window's loads start at every offset of the
	// target and run into its tail, over bands one and two loads wide.
	lens := []int{7, 8, 9, 15, 16, 17, 63, 64, 65}
	for _, l := range lens {
		a := randomString(rng, l, 3)
		for _, l2 := range lens {
			if abs(l2-l) <= 2 {
				b := mutateFixedLen(rng, a[:min(l, l2)]+randomString(rng, max(0, l2-l), 3), 2, 3)
				cases = append(cases, kernelCase{a, b, []int{0, 1, 2, 7, 8, 9, 15, 16}})
			}
		}
	}
	// Bytes around the zero-byte test's borrows, side by side: a test that
	// lets a borrow cross bytes reads c^1 just above a match as a match too
	// (0x01 after 0x00, 0x81 after 0x80), and the distance drops.
	borrow := func(s string) string {
		b := []byte(s)
		for i := range b {
			b[i] = "\x00\x01\x7f\x80\x81\xff"[b[i]-'a']
		}
		return string(b)
	}
	for _, l := range []int{12, 24, 40} {
		a := randomString(rng, l, 6)
		cases = append(cases,
			kernelCase{borrow(a), borrow(mutate(rng, a, 3, 6)), []int{0, 1, 3, 8}},
			kernelCase{borrow(a), borrow(randomString(rng, l, 6)), []int{3, 8}},
			kernelCase{strings.Repeat("\x00", l), strings.Repeat("\x00\x01", l/2), []int{2, 8}},
			kernelCase{strings.Repeat("\x80\x7f", l/2), strings.Repeat("\x80\x81\x7f\xff", l/4), []int{2, 8}},
		)
	}
	// Targets under eight bytes: no load fits and the bytes are compared
	// one at a time.
	cases = append(cases,
		kernelCase{"abcdefgh", "abdefg", []int{1, 2, 3, 4}},
		kernelCase{"\x00\x01\x00\x00\x80", "\x00\x00\x01\x00\x00\xff\x00", []int{0, 1, 2, 3}},
	)

	for _, c := range cases {
		for _, tau := range c.taus {
			checkKernelPair(t, c.a, c.b, tau)
			checkKernelLists(t, c.b, tau, []string{c.a, c.a, c.b}, []string{c.b, c.a})
		}
	}

	long := randomString(rng, 1000, 6)
	for _, other := range []string{mutate(rng, long, 120, 6), mutate(rng, long, 400, 6), randomString(rng, 900, 6)} {
		checkKernelPair(t, long, other, 300)
		checkKernelLists(t, long, 300, []string{other, other[:len(other)-1] + "\xff", long})
	}
}

// TestBandedKernelRandom is the table test's random half: pairs a few edits
// apart under every small threshold.
func TestBandedKernelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4000; i++ {
		a := randomString(rng, rng.Intn(40), 3)
		checkKernelPair(t, a, mutate(rng, a, rng.Intn(10), 3), rng.Intn(10))
	}
}

// TestIncrementalKernelSequences drives the shared-prefix verifier the way
// a join does: sorted sources with long common prefixes, lists of mixed
// lengths, a Reset between lists, and a source that repeats a prefix an
// earlier one terminated early on.
func TestIncrementalKernelSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 300; iter++ {
		target := randomString(rng, 5+rng.Intn(60), 3)
		tau := rng.Intn(7)
		var lists [][]string
		for l := 0; l < 3; l++ {
			var list []string
			for s := 0; s < 2+rng.Intn(8); s++ {
				var src string
				switch rng.Intn(4) {
				case 0: // mixed lengths: the geometry is set up again
					src = mutate(rng, target, rng.Intn(5), 3)
				case 1: // far away: terminates early
					src = randomString(rng, len(target), 3)
				default: // same length, shared prefix
					src = mutateFixedLen(rng, target, rng.Intn(4), 3)
				}
				list = append(list, src)
				if rng.Intn(3) == 0 && len(src) > 2 {
					// Same prefix, different tail: reuses the early-terminated rows.
					list = append(list, src[:len(src)-1]+"\xff")
				}
			}
			if l > 0 {
				sort.Strings(list)
			}
			lists = append(lists, list)
		}
		checkKernelLists(t, target, tau, lists...)
	}
}

// TestHugeThresholds: a threshold past the string lengths must cost what
// the lengths cost. Before the clamp the band rows were sized tau+1 up
// front, so 1<<40 was a fatal out-of-memory and math.MaxInt an overflow.
func TestHugeThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	long := randomString(rng, 90, 4)
	pairs := [][2]string{
		{"kitten", "sitting"}, {"", ""}, {"", "abc"}, {"abc", "abd"},
		{long, mutate(rng, long, 6, 4)}, {long, randomString(rng, 70, 4)},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		ed := EditDistance(a, b)
		longer := maxInt(len(a), len(b))
		for _, tau := range []int{longer, longer + 1, 1 << 40, math.MaxInt} {
			name := fmt.Sprintf("(%q,%q,%d)", a, b, tau)
			if !Within(a, b, tau) {
				t.Errorf("Within%s = false", name)
			}
			var v Verifier
			var pat Pattern
			pat.Set(a)
			var inc Incremental
			inc.Reset(b, tau)
			for kind, got := range map[string]int{
				"Dist":        v.Dist(a, b, tau),
				"DistNaive":   v.DistNaive(a, b, tau),
				"DistMyers":   v.DistMyers(a, b, tau),
				"DistPattern": v.DistPattern(&pat, b, tau),
				"Incremental": inc.Dist(a),
				"Incr. again": inc.Dist(a),
			} {
				if got != ed {
					t.Errorf("%s%s = %d, want the exact distance %d", kind, name, got, ed)
				}
			}
		}
	}
	if Within("kitten", "sitting", 2) {
		t.Error("Within(kitten, sitting, 2) = true")
	}
}

// FuzzBandedKernel holds the kernel to the reference it replaced on
// arbitrary bytes: the same distances and the same DPCells, EarlyTerms and
// SharedRows from Dist, DistNaive and an Incremental run over two lists.
func FuzzBandedKernel(f *testing.F) {
	f.Add("kitten", "sitting", "mitten", 3)
	f.Add("", "", "a", 0)
	f.Add("kaushic chaduri", "kaushuk chadhui", "kaushic chadurx", 4)
	f.Add("aaaaaaaa", "aaaa", "aaaaaaab", 2)
	f.Add("\x00\xff", "\xff\x00", "\x00\x00", 1)
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40), strings.Repeat("ab", 39)+"ba", 7)
	f.Add(strings.Repeat("x", 33), strings.Repeat("x", 31), strings.Repeat("x", 32), 40)
	f.Fuzz(func(t *testing.T, a, b, c string, tau int) {
		if tau < 0 || tau > 64 || len(a) > 300 || len(b) > 300 || len(c) > 300 {
			t.Skip()
		}
		checkKernelPair(t, a, b, tau)
		checkKernelLists(t, b, tau, []string{a, c, a}, []string{c, c, a})
	})
}
