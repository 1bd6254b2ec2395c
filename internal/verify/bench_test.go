package verify

import (
	"math/rand"
	"testing"
)

// benchPairs builds a verification workload shaped like a probe batch: one
// query against many near-length candidates, most within a couple of edits.
func benchPairs(seed int64, n, l int) (string, []string) {
	rng := rand.New(rand.NewSource(seed))
	randStr := func(l int) string {
		b := make([]byte, l)
		for i := range b {
			b[i] = byte('a' + rng.Intn(6))
		}
		return string(b)
	}
	q := randStr(l)
	cands := make([]string, n)
	for i := range cands {
		b := []byte(q)
		for e := 0; e <= rng.Intn(4); e++ {
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(6))
		}
		cands[i] = string(b)
	}
	return q, cands
}

// BenchmarkVerifyPair races the per-pair verification kernels on a batch
// workload. scalar-myers rebuilds the bit-parallel occurrence table for
// every pair (the pre-batch hot path); pattern-myers builds it once per
// query and reuses it across the batch — the tentpole's Peq amortization.
func BenchmarkVerifyPair(b *testing.B) {
	q, cands := benchPairs(7, 64, 40)
	const tau = 3
	var v Verifier

	b.Run("scalar-myers", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			sink += v.DistMyers(q, cands[i%len(cands)], tau)
		}
		_ = sink
	})
	b.Run("pattern-myers", func(b *testing.B) {
		b.ReportAllocs()
		var pat Pattern
		pat.Set(q)
		var sink int
		for i := 0; i < b.N; i++ {
			sink += v.DistPattern(&pat, cands[i%len(cands)], tau)
		}
		_ = sink
	})
	b.Run("banded", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			sink += v.Dist(q, cands[i%len(cands)], tau)
		}
		_ = sink
	})
}

// BenchmarkVerifyLong is the long-string regime beside the 40-byte one
// above: 73–190-byte strings at tau 8, the lengths and threshold of the
// title corpus. pair is one whole-string banded verification; list is what
// the extension verifier does with an inverted list — one Reset and a few
// sorted same-length sources against one target — reported per source.
// list-author-tau2 is list on 12–20-byte strings at tau 2, the narrow band
// of the author corpus. pair-tau63 and pair-tau64 are pair on either side of
// the word kernel's reach: a band of 64 columns runs it, one of 65 runs the
// scalar cells.
func BenchmarkVerifyLong(b *testing.B) {
	titles := verifyLists(20, 73, 90, 120, 150, 190)
	authors := verifyLists(30, 12, 14, 16, 18, 20)
	b.Run("pair", func(b *testing.B) { benchVerifyPairs(b, titles, 8) })
	b.Run("list", func(b *testing.B) { benchVerifyList(b, titles, 8) })
	b.Run("list-author-tau2", func(b *testing.B) { benchVerifyList(b, authors, 2) })
	b.Run("pair-tau63", func(b *testing.B) { benchVerifyPairs(b, titles, 63) })
	b.Run("pair-tau64", func(b *testing.B) { benchVerifyPairs(b, titles, 64) })
}

// verifyList is one target and four sorted candidates of its length.
type verifyList struct {
	q     string
	cands []string
}

func verifyLists(seed int64, lens ...int) []verifyList {
	var lists []verifyList
	for i, l := range lens {
		q, cands := benchPairs(seed+int64(i), 4, l)
		sortStrings(cands)
		lists = append(lists, verifyList{q, cands})
	}
	return lists
}

func benchVerifyPairs(b *testing.B, lists []verifyList, tau int) {
	b.ReportAllocs()
	var v Verifier
	var sink int
	for i := 0; i < b.N; i++ {
		l := lists[i%len(lists)]
		sink += v.Dist(l.q, l.cands[i%len(l.cands)], tau)
	}
	_ = sink
}

func benchVerifyList(b *testing.B, lists []verifyList, tau int) {
	b.ReportAllocs()
	var inc Incremental
	var sink int
	for i := 0; i < b.N; i += len(lists[0].cands) {
		l := lists[i%len(lists)]
		inc.Reset(l.q, tau)
		for _, c := range l.cands {
			sink += inc.Dist(c)
		}
	}
	_ = sink
}

// BenchmarkEditDistance is the full dynamic program, the reference the
// banded and bit-parallel kernels are measured against.
func BenchmarkEditDistance(b *testing.B) {
	q, cands := benchPairs(11, 64, 48)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += EditDistance(q, cands[i%len(cands)])
	}
	_ = sink
}
