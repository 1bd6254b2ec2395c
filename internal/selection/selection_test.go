package selection

import (
	"math/rand"
	"testing"
	"testing/quick"

	"passjoin/internal/partition"
	"passjoin/internal/verify"
)

// collect enumerates the actual substrings selected by method m for probe s
// against indexed length l.
func collect(m Method, s string, l, tau int) map[int][]string {
	out := make(map[int][]string)
	for i := 1; i <= tau+1; i++ {
		pi := partition.SegPos(l, tau, i)
		li := partition.SegLen(l, tau, i)
		lo, hi := m.Window(len(s), l, tau, i, pi, li)
		for p := lo; p <= hi; p++ {
			out[i] = append(out[i], s[p-1:p-1+li])
		}
	}
	return out
}

// §4.2 running example: r="vankatesh" (l=9), s="avataresha", tau=3. The
// multi-match-aware method selects exactly 8 substrings.
func TestPaperExampleMultiMatch(t *testing.T) {
	got := collect(MultiMatch, "avataresha", 9, 3)
	want := map[int][]string{
		1: {"av"},
		2: {"va", "at", "ta"},
		3: {"ar", "re", "es"},
		4: {"sha"},
	}
	for i := 1; i <= 4; i++ {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("segment %d: got %v, want %v", i, got[i], want[i])
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Errorf("segment %d[%d]: got %q, want %q", i, k, got[i][k], want[i][k])
			}
		}
	}
}

// §4.1 running example: the position-aware method selects 14 substrings.
func TestPaperExamplePosition(t *testing.T) {
	got := collect(Position, "avataresha", 9, 3)
	want := map[int][]string{
		1: {"av", "va", "at"},
		2: {"va", "at", "ta", "ar"},
		3: {"ta", "ar", "re", "es"},
		4: {"res", "esh", "sha"},
	}
	total := 0
	for i := 1; i <= 4; i++ {
		total += len(got[i])
		for k := range want[i] {
			if k >= len(got[i]) || got[i][k] != want[i][k] {
				t.Fatalf("segment %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
	if total != 14 {
		t.Errorf("position-aware selected %d substrings, want 14", total)
	}
}

// The paper's size claims for the example: shift-based selects 28 substrings
// before boundary clamping; multi-match selects ⌊(τ²−Δ²)/2⌋+τ+1 = 8.
func TestTheoreticalTotals(t *testing.T) {
	if n := Shift.TheoreticalTotal(10, 9, 3); n != 28 {
		t.Errorf("shift theoretical = %d, want 28", n)
	}
	if n := Position.TheoreticalTotal(10, 9, 3); n != 16 {
		t.Errorf("position theoretical = %d, want 16", n)
	}
	if n := MultiMatch.TheoreticalTotal(10, 9, 3); n != 8 {
		t.Errorf("multi-match theoretical = %d, want 8", n)
	}
	// §4: length-based for |s|=l=15, tau=1 gives 17; shift 6; position 4;
	// multi-match 2.
	if n := Length.TheoreticalTotal(15, 15, 1); n != 17 {
		t.Errorf("length theoretical = %d, want 17", n)
	}
	if n := Shift.TheoreticalTotal(15, 15, 1); n != 6 {
		t.Errorf("shift theoretical = %d, want 6", n)
	}
	if n := Position.TheoreticalTotal(15, 15, 1); n != 4 {
		t.Errorf("position theoretical = %d, want 4", n)
	}
	if n := MultiMatch.TheoreticalTotal(15, 15, 1); n != 2 {
		t.Errorf("multi-match theoretical = %d, want 2", n)
	}
}

// Lemma 2: with segments of length >= 2 (l >= 2(τ+1)) the enumerated
// multi-match window sizes sum exactly to ⌊(τ²−Δ²)/2⌋+τ+1.
func TestLemma2ExactCount(t *testing.T) {
	for tau := 0; tau <= 6; tau++ {
		for l := 2 * (tau + 1); l <= 2*(tau+1)+20; l++ {
			for delta := -tau; delta <= tau; delta++ {
				sLen := l + delta
				if sLen < 1 {
					continue
				}
				total := 0
				for i := 1; i <= tau+1; i++ {
					pi := partition.SegPos(l, tau, i)
					li := partition.SegLen(l, tau, i)
					lo, hi := MultiMatch.Window(sLen, l, tau, i, pi, li)
					if hi >= lo {
						total += hi - lo + 1
					}
				}
				want := MultiMatch.TheoreticalTotal(sLen, l, tau)
				if total != want {
					t.Fatalf("tau=%d l=%d delta=%d: |Wm|=%d, want %d", tau, l, delta, total, want)
				}
			}
		}
	}
}

// Lemma 3: windows nest, Wm ⊆ Wp ⊆ Wf ⊆ Wℓ, for every parameter combination.
func TestWindowNesting(t *testing.T) {
	for tau := 0; tau <= 5; tau++ {
		for l := tau + 1; l <= 40; l++ {
			for delta := -tau; delta <= tau; delta++ {
				sLen := l + delta
				if sLen < 1 {
					continue
				}
				for i := 1; i <= tau+1; i++ {
					pi := partition.SegPos(l, tau, i)
					li := partition.SegLen(l, tau, i)
					loM, hiM := MultiMatch.Window(sLen, l, tau, i, pi, li)
					loP, hiP := Position.Window(sLen, l, tau, i, pi, li)
					loF, hiF := Shift.Window(sLen, l, tau, i, pi, li)
					loL, hiL := Length.Window(sLen, l, tau, i, pi, li)
					if hiM >= loM && (loM < loP || hiM > hiP) {
						t.Fatalf("Wm ⊄ Wp: tau=%d l=%d Δ=%d i=%d: [%d,%d] vs [%d,%d]", tau, l, delta, i, loM, hiM, loP, hiP)
					}
					if hiP >= loP && (loP < loF || hiP > hiF) {
						t.Fatalf("Wp ⊄ Wf: tau=%d l=%d Δ=%d i=%d", tau, l, delta, i)
					}
					if hiF >= loF && (loF < loL || hiF > hiL) {
						t.Fatalf("Wf ⊄ Wℓ: tau=%d l=%d Δ=%d i=%d", tau, l, delta, i)
					}
				}
			}
		}
	}
}

// Completeness (Theorems 1–2): if ed(r,s) <= tau then for l=|r| some
// selected substring of s equals the corresponding segment of r. This is
// the property the whole join's exactness rests on.
func TestCompletenessUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4000; trial++ {
		tau := rng.Intn(5)
		rLen := tau + 1 + rng.Intn(30)
		r := randString(rng, rLen, 4)
		s := mutateK(rng, r, rng.Intn(tau+1), 4)
		if len(s) == 0 {
			continue
		}
		// The mutation may exceed tau edits only if rng produced fewer ops;
		// recheck with the reference metric.
		if verify.EditDistance(r, s) > tau {
			continue
		}
		for _, m := range Methods {
			if !findsMatch(m, r, s, tau) {
				t.Fatalf("method %v misses similar pair r=%q s=%q tau=%d", m, r, s, tau)
			}
		}
	}
}

func findsMatch(m Method, r, s string, tau int) bool {
	l := len(r)
	for i := 1; i <= tau+1; i++ {
		pi := partition.SegPos(l, tau, i)
		li := partition.SegLen(l, tau, i)
		seg := r[pi-1 : pi-1+li]
		lo, hi := m.Window(len(s), l, tau, i, pi, li)
		for p := lo; p <= hi; p++ {
			if s[p-1:p-1+li] == seg {
				return true
			}
		}
	}
	return false
}

// quick property: multi-match windows are never larger than position
// windows, and both respect string bounds.
func TestQuickWindowBounds(t *testing.T) {
	f := func(tauRaw, lRaw, dRaw uint8) bool {
		tau := int(tauRaw % 6)
		l := tau + 1 + int(lRaw%50)
		delta := int(dRaw%uint8(2*tau+1)) - tau
		sLen := l + delta
		if sLen < 1 {
			return true
		}
		for i := 1; i <= tau+1; i++ {
			pi := partition.SegPos(l, tau, i)
			li := partition.SegLen(l, tau, i)
			for _, m := range Methods {
				lo, hi := m.Window(sLen, l, tau, i, pi, li)
				if hi < lo {
					continue
				}
				if lo < 1 || hi+li-1 > sLen {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowEmptyWhenProbeTooShort(t *testing.T) {
	// Probe shorter than the segment: no feasible start position.
	for _, m := range Methods {
		lo, hi := m.Window(2, 12, 3, 1, 1, 3)
		if hi >= lo {
			t.Errorf("%v: expected empty window, got [%d,%d]", m, lo, hi)
		}
	}
}

// Every method renders a distinct figure label, and an unknown one still
// renders.
func TestMethodString(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range Methods {
		if name := m.String(); name == "" || seen[name] {
			t.Errorf("%d: label %q empty or repeated", int(m), name)
		} else {
			seen[name] = true
		}
	}
	if Method(99).String() == "" {
		t.Error("unknown method should still render")
	}
}

// TestWindowQReducesToWindow pins the delegation identity: probing a
// τ-partition at its own threshold must select exactly the paper's
// original windows, for every method and geometry.
func TestWindowQReducesToWindow(t *testing.T) {
	for _, m := range Methods {
		for tau := 0; tau <= 4; tau++ {
			for l := tau + 1; l <= 16; l++ {
				for sLen := 1; sLen <= 18; sLen++ {
					for i := 1; i <= tau+1; i++ {
						pi := partition.SegPos(l, tau, i)
						li := partition.SegLen(l, tau, i)
						lo, hi := m.Window(sLen, l, tau, i, pi, li)
						loQ, hiQ := m.WindowQ(sLen, l, tau, tau+1, i, pi, li)
						if lo != loQ || hi != hiQ {
							t.Fatalf("%v sLen=%d l=%d tau=%d i=%d: Window [%d,%d] != WindowQ [%d,%d]",
								m, sLen, l, tau, i, lo, hi, loQ, hiQ)
						}
					}
				}
			}
		}
	}
}

// TestWindowQMonotone checks that tightening the query budget never grows
// a window: the τ′-window is contained in the τ-window for every τ′ < τ
// (a larger budget admits every alignment a smaller one does).
func TestWindowQMonotone(t *testing.T) {
	for _, m := range Methods {
		for tau := 1; tau <= 4; tau++ {
			for qt := 0; qt < tau; qt++ {
				for l := tau + 1; l <= 14; l++ {
					for sLen := 1; sLen <= 16; sLen++ {
						for i := 1; i <= tau+1; i++ {
							pi := partition.SegPos(l, tau, i)
							li := partition.SegLen(l, tau, i)
							lo, hi := m.WindowQ(sLen, l, tau, tau+1, i, pi, li)
							loQ, hiQ := m.WindowQ(sLen, l, qt, tau+1, i, pi, li)
							if hiQ < loQ {
								continue // empty tight window is always contained
							}
							if loQ < lo || hiQ > hi {
								t.Fatalf("%v sLen=%d l=%d tau=%d qtau=%d i=%d: [%d,%d] not within [%d,%d]",
									m, sLen, l, tau, qt, i, loQ, hiQ, lo, hi)
							}
						}
					}
				}
			}
		}
	}
}

// TestWindowQComplete is the exhaustive completeness check for the
// tightened windows: for random (r, s) pairs with ed(r, s) <= qtau over a
// τ-partition, some segment of r must occur in s at a position inside its
// WindowQ window — otherwise the probe could miss a true match.
func TestWindowQComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var v verify.Verifier
	for trial := 0; trial < 4000; trial++ {
		tau := 1 + rng.Intn(3)
		qt := rng.Intn(tau + 1)
		r := randString(rng, tau+1+rng.Intn(10), 3)
		s := mutateK(rng, r, rng.Intn(qt+1), 3)
		if v.Dist(r, s, qt) > qt {
			continue
		}
		for _, m := range Methods {
			found := false
			segs := partition.Segments(len(r), tau)
			for i := 1; i <= tau+1 && !found; i++ {
				sg := segs[i-1]
				w := r[sg.Pos-1 : sg.Pos-1+sg.Len]
				lo, hi := m.WindowQ(len(s), len(r), qt, tau+1, i, sg.Pos, sg.Len)
				for p := lo; p <= hi; p++ {
					if s[p-1:p-1+sg.Len] == w {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("%v: no window of the tau=%d partition of %q finds it in %q (ed <= %d)", m, tau, r, s, qt)
			}
		}
	}
}

// --- helpers ---

func randString(rng *rand.Rand, n, alpha int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(alpha))
	}
	return string(b)
}

func mutateK(rng *rand.Rand, s string, k, alpha int) string {
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
