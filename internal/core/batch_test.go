package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// batchCorpus builds a small but collision-rich corpus: clusters of lightly
// mutated strings around random bases, plus a few very long (>64-char)
// strings so the word-size boundary of the bit-parallel kernel is crossed
// in both directions.
func batchCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	randStr := func(l int) string {
		b := make([]byte, l)
		for i := range b {
			b[i] = byte('a' + rng.Intn(5))
		}
		return string(b)
	}
	var out []string
	for len(out) < n {
		l := 4 + rng.Intn(12)
		if rng.Intn(10) == 0 {
			l = 60 + rng.Intn(20) // straddle the 64-char kernel limit
		}
		base := randStr(l)
		out = append(out, base)
		for k := 0; k < 3 && len(out) < n; k++ {
			b := []byte(base)
			for e := 0; e <= rng.Intn(3); e++ {
				b[rng.Intn(len(b))] = byte('a' + rng.Intn(5))
			}
			out = append(out, string(b))
		}
	}
	return out
}

// TestBatchVerification is the differential gate for the batched prober:
// for every verification kind and every query budget qtau <= build tau, a
// query must return exactly what brute force finds over the same strings —
// same ids, exact distances, ascending — on both the mutable map index and
// the frozen CSR index.
func TestBatchVerification(t *testing.T) {
	strs := batchCorpus(41, 160)
	queries := append([]string{}, strs[:40]...)
	rng := rand.New(rand.NewSource(9))
	for i := range queries {
		b := []byte(queries[i])
		b[rng.Intn(len(b))] = byte('a' + rng.Intn(6))
		queries[i] = string(b)
	}
	const tau = 3
	for _, vk := range VerifyKinds {
		for _, seal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/seal=%v", vk, seal), func(t *testing.T) {
				m, err := NewMatcher(tau, selection.MultiMatch, vk, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range strs {
					m.InsertSilent(s)
				}
				if seal {
					m = sealedFrom(t, m, nil)
				}
				for _, q := range queries {
					for qtau := 0; qtau <= tau; qtau++ {
						// Brute force scans ids in ascending order.
						want := map[int32]int32{}
						var wantHits []Hit
						for _, p := range bruteforce.Join([]string{q}, strs, qtau) {
							h := Hit{ID: p.S, Dist: int32(verify.EditDistance(q, strs[p.S]))}
							want[h.ID] = h.Dist
							wantHits = append(wantHits, h)
						}
						got := m.QueryOpt(q, QueryOpts{Tau: qtau})
						if len(got) != len(wantHits) {
							t.Fatalf("q=%q qtau=%d: %d hits, brute force %d", q, qtau, len(got), len(wantHits))
						}
						for i := range got {
							if got[i] != wantHits[i] {
								t.Fatalf("q=%q qtau=%d hit %d: %+v, brute force %+v", q, qtau, i, got[i], wantHits[i])
							}
						}
						// The limited form keeps the first hits in probe
						// order: that many true hits, each once.
						lim := m.QueryOpt(q, QueryOpts{Tau: qtau, Limit: 2})
						if len(lim) != min(2, len(wantHits)) {
							t.Fatalf("q=%q qtau=%d limit 2: %d hits of %d", q, qtau, len(lim), len(wantHits))
						}
						for i, h := range lim {
							if d, ok := want[h.ID]; !ok || d != h.Dist || (i > 0 && lim[i-1].ID >= h.ID) {
								t.Fatalf("q=%q qtau=%d limit 2: hits %+v, brute force %+v", q, qtau, lim, wantHits)
							}
						}
					}
				}
			})
		}
	}
}

// TestBatchJoins runs the join entry points — sequential self join,
// parallel self join, R×S join, and the streaming form — under every
// verification kind against the brute-force pair sets.
func TestBatchJoins(t *testing.T) {
	strs := batchCorpus(77, 120)
	rset := batchCorpus(78, 60)
	brute := func(ps []bruteforce.Pair) []Pair {
		out := make([]Pair, len(ps))
		for i, p := range ps {
			out[i] = Pair{p.R, p.S}
		}
		SortPairs(out)
		return out
	}
	for _, vk := range VerifyKinds {
		for _, tau := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/tau=%d", vk, tau), func(t *testing.T) {
				wantSelf := brute(bruteforce.SelfJoin(strs, tau))
				wantRS := brute(bruteforce.Join(rset, strs, tau))
				cmp := func(name string, got, want []Pair, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					SortPairs(got)
					if len(got) != len(want) {
						t.Fatalf("%s: %d pairs, brute force %d", name, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s pair %d: %v, brute force %v", name, i, got[i], want[i])
						}
					}
				}
				got, err := SelfJoin(strs, Options{Tau: tau, Verification: vk})
				cmp("selfjoin", got, wantSelf, err)
				got, err = SelfJoin(strs, Options{Tau: tau, Verification: vk, Parallel: 4})
				cmp("selfjoin-parallel", got, wantSelf, err)
				got, err = Join(rset, strs, Options{Tau: tau, Verification: vk})
				cmp("rsjoin", got, wantRS, err)
				var stream []Pair
				err = SelfJoinEach(context.Background(), strs, Options{Tau: tau, Verification: vk, Parallel: 3},
					func(p Pair) bool { stream = append(stream, p); return true })
				cmp("selfjoin-stream", stream, wantSelf, err)
			})
		}
	}
}
