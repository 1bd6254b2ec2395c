package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// FuzzQueryTau differential-tests the query pass — the per-probe threshold's
// τ′ < τ selection-window and verification-bound math, the hit cap and the
// strings too short to partition — against a brute force scan: a matcher
// partitioned for tau must answer QueryOpt and QuerySeq at every qtau <= tau
// exactly, unlimited and capped at limit (a capped query returns exactly
// min(limit, all) of the hits, at their distances), and QueryIDs with every
// id within tau, for every selection method and verification kind, in both
// the mutable (map) and sealed (frozen CSR) phases.
func FuzzQueryTau(f *testing.F) {
	f.Add("abc\nabd\nxyz\nabcd", "abd", 2, uint8(0))
	f.Add("a\n\nb\naa\nab", "ab", 3, uint8(2))
	f.Add("aaaa\naaab\nbaaa\naabb", "aaba", 3, uint8(1))
	f.Add("kaushik chakrab\ncaushik chakrabar\nkaushuk chakrabar", "kaushik chakrabarti", 4, uint8(2))
	f.Add("b\nab\naab\naaab\naaaab\nc", "aab", 2, uint8(3))
	f.Fuzz(func(t *testing.T, blob, q string, tau int, limit uint8) {
		if tau < 0 || tau > 4 || len(blob) > 400 || len(q) > 60 || limit > 5 {
			t.Skip()
		}
		strs := strings.Split(blob, "\n")
		if len(strs) > 30 {
			t.Skip()
		}
		// Ground truth per query threshold: exact thresholded distances.
		var v verify.Verifier
		want := make([]map[int32]int32, tau+1)
		for qt := 0; qt <= tau; qt++ {
			want[qt] = make(map[int32]int32)
			for id, r := range strs {
				if d := v.Dist(r, q, qt); d <= qt {
					want[qt][int32(id)] = int32(d)
				}
			}
		}
		wantIDs := slices.Sorted(maps.Keys(want[tau]))
		type combo struct {
			sel selection.Method
			vk  VerifyKind
		}
		var combos []combo
		for _, sel := range selection.Methods {
			combos = append(combos, combo{sel, VerifyExtensionShared})
		}
		for _, vk := range VerifyKinds {
			combos = append(combos, combo{selection.MultiMatch, vk})
		}
		for _, c := range combos {
			for _, sealed := range []bool{false, true} {
				m, err := NewMatcher(tau, c.sel, c.vk, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range strs {
					m.InsertSilent(s)
				}
				if sealed {
					m = sealedFrom(t, m, nil)
				}
				where := fmt.Sprintf("%v/%v sealed=%v (corpus %q query %q)", c.sel, c.vk, sealed, strs, q)
				if got := m.QueryIDs(q); !slices.Equal(got, wantIDs) {
					t.Fatalf("%s tau=%d: QueryIDs %v, want %v", where, tau, got, wantIDs)
				}
				for qt := 0; qt <= tau; qt++ {
					for _, lim := range []int{0, int(limit)} {
						o := QueryOpts{Tau: qt, Limit: lim}
						n := len(want[qt])
						if lim > 0 {
							n = min(n, lim)
						}
						checkHits(t, fmt.Sprintf("%s qtau=%d/%d limit=%d: QueryOpt", where, qt, tau, lim), m.QueryOpt(q, o), want[qt], n)
						// The streaming form must surface the same hits.
						var seq []Hit
						m.QuerySeq(q, o, func(h Hit) bool {
							seq = append(seq, h)
							return true
						})
						checkHits(t, fmt.Sprintf("%s qtau=%d/%d limit=%d: QuerySeq", where, qt, tau, lim), seq, want[qt], n)
					}
				}
			}
		}
	})
}

// checkHits fails t unless got is n distinct hits of want, each at its
// distance there.
func checkHits(t *testing.T, where string, got []Hit, want map[int32]int32, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: %d hits %v, want %d of %v", where, len(got), got, n, want)
	}
	seen := make(map[int32]bool, len(got))
	for _, h := range got {
		if d, ok := want[h.ID]; !ok || d != h.Dist || seen[h.ID] {
			t.Fatalf("%s: hit %+v (repeated %v), want dist %d (present %v)", where, h, seen[h.ID], d, ok)
		}
		seen[h.ID] = true
	}
}

// FuzzSelfJoin holds the joins to brute force on fuzzer-chosen lines,
// repeated a fuzzer-chosen number of times: the lines alone are a corpus of a
// few strings per length; repeated, every length group grows past a batch of
// 64 and, from some two dozen repeats of forty lines on, past a chunk of
// 1024, full of duplicates on either side of every boundary. Brute force
// reads the lines once — copy a of line i is within tau of copy b of line j
// exactly if the lines are (or are the same line) — so the big corpora cost
// no quadratic oracle. Every verifier joins serially; the default one also
// on two and three workers, and as an R≠S join of the corpus's first half
// against all of it. The seed corpus runs under plain `go test`; use
// `go test -fuzz=FuzzSelfJoin` for more.
func FuzzSelfJoin(f *testing.F) {
	f.Add("abc\nabd\nxyz\nabcd", 1, uint16(1))
	f.Add("a\n\nb\naa\nab", 2, uint16(1))
	f.Add("aaaa\naaab\nbaaa\naabb", 3, uint16(70))
	f.Add("kaushik chakrab\ncaushik chakrabar", 3, uint16(1))
	f.Add("abcde\nabcdf\nxbcde\nabcd\nzzzzz", 1, uint16(80))
	f.Add("aaaaaaaa\naaaaaaab\nbbbbbbbb\ncccccccc\ndddddddd\neeeeeeee\nffffffff\ngggggggg\nhhhhhhhh\niiiiiiii\njjjjjjjj\nkkkkkkkk\nllllllll\nmmmmmmmm", 2, uint16(1000))
	f.Fuzz(func(t *testing.T, blob string, tau int, repeat uint16) {
		if tau < 0 || tau > 5 || len(blob) > 600 {
			t.Skip()
		}
		lines := strings.Split(blob, "\n")
		if len(lines) > 40 {
			t.Skip()
		}
		n := len(lines)
		copies := max(1, min(int(repeat), 1300/n))
		strs := make([]string, 0, n*copies)
		for c := 0; c < copies; c++ {
			strs = append(strs, lines...)
		}
		similar := make([][]bool, n) // of lines; a line is similar to itself
		for i := range similar {
			similar[i] = make([]bool, n)
			similar[i][i] = true
		}
		var want int // pairs of strs
		for _, p := range bruteforce.SelfJoin(lines, tau) {
			similar[p.R][p.S], similar[p.S][p.R] = true, true
			want += copies * copies
		}
		want += n * copies * (copies - 1) / 2
		if want > 80_000 {
			t.Skip()
		}
		check := func(label string, got []Pair, want int) {
			t.Helper()
			if len(got) != want {
				t.Fatalf("%s: %d pairs, want %d (lines %q x%d, tau=%d)", label, len(got), want, lines, copies, tau)
			}
			for k, p := range got {
				if !similar[int(p.R)%n][int(p.S)%n] || (k > 0 && got[k-1] == p) {
					t.Fatalf("%s: spurious or repeated %v (lines %q x%d, tau=%d)", label, p, lines, copies, tau)
				}
			}
		}
		for _, vk := range VerifyKinds {
			got, err := SelfJoin(strs, Options{Tau: tau, Verification: vk})
			if err != nil {
				t.Fatal(err)
			}
			check(vk.String(), got, want)
		}
		half := strs[:len(strs)/2]
		for _, workers := range []int{0, 2, 3} {
			if workers > 0 {
				got, err := SelfJoin(strs, Options{Tau: tau, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d workers", workers), got, want)
			}
			wantRS := 0
			for r := range half {
				for j := 0; j < n; j++ {
					if similar[r%n][j] {
						wantRS += copies
					}
				}
			}
			got, err := Join(half, strs, Options{Tau: tau, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("R-S, %d workers", workers), got, wantRS)
		}
	})
}

// FuzzSortRecs takes fuzzer-chosen bytes, cut into strings of one width and
// a shorter tail, through checkSortRecs: one length group of len(data)/width
// strings, on either side of radixCutoff, whose keys hold whatever bytes the
// fuzzer likes, and — the width cycling through 1..12 — are shorter than,
// as long as and longer than the strings. The seed corpus runs under plain
// `go test`; use `go test -fuzz=FuzzSortRecs` for more.
func FuzzSortRecs(f *testing.F) {
	f.Add([]byte("abc\x00abd\xffxyz\x80abcd"), uint8(3))
	f.Add([]byte("prefix--aprefix--bprefix--aprefix--"), uint8(9))
	f.Add([]byte(strings.Repeat("\x00\x80\xff\x7fab", 200)), uint8(1))
	f.Add([]byte(strings.Repeat("same-eight-bytes and then some more; ", 120)), uint8(11))
	f.Add([]byte(strings.Repeat("kaushik chakrabarti, surajit chaudhuri, venkatesh ganti", 40)), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		if len(data) > 1<<14 {
			t.Skip()
		}
		w := int(width)%12 + 1
		var strs []string
		for ; len(data) > w; data = data[w:] {
			strs = append(strs, string(data[:w]))
		}
		checkSortRecs(t, append(strs, string(data)))
	})
}
