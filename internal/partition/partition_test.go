package partition

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperExample(t *testing.T) {
	// §3.1: "vankatesh" with tau=3 partitions into {va, nk, at, esh}.
	got := Split("vankatesh", 3)
	want := []string{"va", "nk", "at", "esh"}
	if len(got) != len(want) {
		t.Fatalf("Split returned %d segments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d = %q, want %q", i+1, got[i], want[i])
		}
	}
}

func TestPaperExampleAvataresha(t *testing.T) {
	// "avataresha" (len 10, tau=3): k=2, so two short then two long segments.
	got := Split("avataresha", 3)
	want := []string{"av", "at", "are", "sha"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d = %q, want %q", i+1, got[i], want[i])
		}
	}
}

func TestSegmentsCoverString(t *testing.T) {
	for l := 1; l <= 64; l++ {
		for tau := 0; tau <= 8 && tau+1 <= l; tau++ {
			segs := Segments(l, tau)
			if len(segs) != tau+1 {
				t.Fatalf("l=%d tau=%d: %d segments, want %d", l, tau, len(segs), tau+1)
			}
			pos := 1
			for i, g := range segs {
				if g.Pos != pos {
					t.Fatalf("l=%d tau=%d seg %d: pos=%d, want %d", l, tau, i+1, g.Pos, pos)
				}
				if g.Len < 1 {
					t.Fatalf("l=%d tau=%d seg %d: empty segment", l, tau, i+1)
				}
				pos += g.Len
			}
			if pos != l+1 {
				t.Fatalf("l=%d tau=%d: segments cover %d chars, want %d", l, tau, pos-1, l)
			}
		}
	}
}

func TestLengthsDifferByAtMostOne(t *testing.T) {
	for l := 1; l <= 100; l++ {
		for tau := 0; tau+1 <= l && tau <= 10; tau++ {
			segs := Segments(l, tau)
			minL, maxL := segs[0].Len, segs[0].Len
			for _, g := range segs {
				if g.Len < minL {
					minL = g.Len
				}
				if g.Len > maxL {
					maxL = g.Len
				}
			}
			if maxL-minL > 1 {
				t.Fatalf("l=%d tau=%d: segment lengths range [%d,%d]", l, tau, minL, maxL)
			}
			// Even partition: long segments come last.
			sawLong := false
			for _, g := range segs {
				if g.Len == maxL && maxL != minL {
					sawLong = true
				} else if sawLong && g.Len == minL {
					t.Fatalf("l=%d tau=%d: short segment after long one", l, tau)
				}
			}
		}
	}
}

func TestAccessorsMatchSegments(t *testing.T) {
	for l := 1; l <= 80; l++ {
		for tau := 0; tau+1 <= l && tau <= 9; tau++ {
			segs := Segments(l, tau)
			for i := 1; i <= tau+1; i++ {
				if p := SegPos(l, tau, i); p != segs[i-1].Pos {
					t.Fatalf("SegPos(%d,%d,%d)=%d, want %d", l, tau, i, p, segs[i-1].Pos)
				}
				if n := SegLen(l, tau, i); n != segs[i-1].Len {
					t.Fatalf("SegLen(%d,%d,%d)=%d, want %d", l, tau, i, n, segs[i-1].Len)
				}
			}
		}
	}
}

func TestSplitConcatenatesToOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tau := rng.Intn(6)
		l := tau + 1 + rng.Intn(40)
		var b strings.Builder
		for i := 0; i < l; i++ {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		s := b.String()
		if joined := strings.Join(Split(s, tau), ""); joined != s {
			t.Fatalf("Split(%q,%d) concatenates to %q", s, tau, joined)
		}
	}
}

func TestSegmentAccessor(t *testing.T) {
	s := "caushik chakrabar" // len 17, tau=3 -> segments of len 4,4,4,5
	segs := Split(s, 3)
	for i := 1; i <= 4; i++ {
		p, n := SegPos(len(s), 3, i), SegLen(len(s), 3, i)
		if got := s[p-1 : p-1+n]; got != segs[i-1] {
			t.Errorf("segment %d at SegPos/SegLen = %q, Split has %q", i, got, segs[i-1])
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		l, tau int
		want   bool
	}{
		{0, 0, false}, {1, 0, true}, {3, 3, false}, {4, 3, true},
		{10, 9, true}, {10, 10, false}, {5, -1, false},
	}
	for _, c := range cases {
		if got := Valid(c.l, c.tau); got != c.want {
			t.Errorf("Valid(%d,%d)=%v, want %v", c.l, c.tau, got, c.want)
		}
	}
}

func TestPanicsOnInvalid(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Segments short", func() { Segments(3, 3) })
	mustPanic("SegPos i=0", func() { SegPos(10, 2, 0) })
	mustPanic("SegPos i too big", func() { SegPos(10, 2, 4) })
	mustPanic("SegLen negative tau", func() { SegLen(10, -1, 1) })
	mustPanic("Split short", func() { Split("ab", 2) })
}

// Property: for any (l, tau) the paper's size claim holds — each segment has
// length ⌊l/(tau+1)⌋ or ⌈l/(tau+1)⌉ and exactly k = l mod (tau+1) segments
// are long.
func TestQuickSegmentLengths(t *testing.T) {
	f := func(lRaw, tauRaw uint8) bool {
		tau := int(tauRaw % 9)
		l := tau + 1 + int(lRaw)%120
		q := l / (tau + 1)
		k := l - q*(tau+1)
		long := 0
		for _, g := range Segments(l, tau) {
			switch g.Len {
			case q:
			case q + 1:
				long++
			default:
				return false
			}
		}
		return long == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
