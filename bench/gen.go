package main

import (
	"hash/fnv"
	"math/rand/v2"
	"net/url"
)

// The harness's own seeded generators. Corpus content comes from
// internal/dataset at a fixed seed; its order and everything else the
// program under test sees (queries, edits, op streams) is made here from
// the run's seed and nothing else.

// corpusSeed fixes the content of every corpus: the named corpora are
// Author(100000, 1), AuthorTitle(20000, 1) and the insert pool
// Author(200000, 2). The run's seed only shuffles them. A corpus whose
// content followed the run's seed would make the seed the largest term in
// every number: AuthorTitle(20000, s) joins to 7 241 pairs in 0.75 s at
// one seed and 14 019 pairs in 1.4 s at another, and no bound below that
// spread could tell a regression from a draw of the seed.
const corpusSeed = 1

// shuffled returns strs in the order the run's seed gives them: document
// ids, shard placement and the order a join sees its input all follow it.
func shuffled(strs []string, seed int64) []string {
	newRNG(seed, streamCorpus).Shuffle(len(strs), func(i, j int) { strs[i], strs[j] = strs[j], strs[i] })
	return strs
}

// Streams of the seeded generator, so the query set, the op schedule and
// the samples are independent of one another.
const (
	streamQueries = iota + 1
	streamOps
	streamSample
	streamPairs
	streamCorpus
)

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

const editAlphabet = "abcdefghijklmnopqrstuvwxyz "

// editString applies k random single-character edits (insert, delete or
// substitute) to s.
func editString(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for ; k > 0; k-- {
		c := editAlphabet[rng.IntN(len(editAlphabet))]
		switch op := rng.IntN(3); {
		case op == 0 || len(b) == 0: // insert
			p := rng.IntN(len(b) + 1)
			b = append(b, 0)
			copy(b[p+1:], b[p:])
			b[p] = c
		case op == 1: // delete
			p := rng.IntN(len(b))
			b = append(b[:p], b[p+1:]...)
		default: // substitute
			b[rng.IntN(len(b))] = c
		}
	}
	return string(b)
}

// makeQueries builds the query set over corpus: n distinct non-empty
// strings, 25 % exact corpus strings (hits), 50 % a corpus string with 1-2
// random edits (hits at tau 2 unless an edit lands badly), 25 % with 6
// edits (misses and near-misses). Distinct so a traced run can join the
// spans of one request on its query string.
func makeQueries(corpus []string, n int, seed int64) []string {
	rng := newRNG(seed, streamQueries)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var edits int
		switch slot := len(out) % 4; slot {
		case 0:
			edits = 0
		case 1, 2:
			edits = 1 + rng.IntN(2)
		default:
			edits = 6
		}
		// A corpus smaller than n/4 runs out of distinct exact strings;
		// fall back to one edit rather than spin.
		for try := 0; ; try++ {
			if try == 64 && edits == 0 {
				edits = 1
			}
			q := editString(rng, corpus[rng.IntN(len(corpus))], edits)
			if q != "" && !seen[q] {
				seen[q] = true
				out = append(out, q)
				break
			}
		}
	}
	return out
}

// searchPaths pre-encodes GET /v1/search request paths so the timed HTTP
// client loop does no escaping.
func searchPaths(queries []string) []string {
	out := make([]string, len(queries))
	for i, q := range queries {
		out[i] = "/v1/search?q=" + url.QueryEscape(q)
	}
	return out
}

// Op kinds of the churn stream.
const (
	opSearch byte = iota
	opInsert
	opDelete
)

// opSchedule returns n op kinds (n a multiple of 10) for one client
// goroutine in one round: every block of ten is a seeded shuffle of eight
// searches, one insert and one delete, so the mix is exactly 80/10/10 and
// a client that starts a block owning at least one document never runs
// out of documents to delete.
func opSchedule(seed int64, goroutine, round, n int) []byte {
	rng := newRNG(seed, streamOps+uint64(goroutine)<<8+uint64(round+1)<<24)
	out := make([]byte, n)
	for b := 0; b+10 <= n; b += 10 {
		blk := out[b : b+10]
		for i := range blk {
			blk[i] = opSearch
		}
		blk[8], blk[9] = opInsert, opDelete
		rng.Shuffle(10, func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// sampleIndices returns k distinct seeded indices below n (all of them
// when k >= n), ascending is not guaranteed.
func sampleIndices(seed int64, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return newRNG(seed, streamSample).Perm(n)[:k]
}

// hashStrings fingerprints a generated input so two result files can be
// shown to have measured the same thing.
func hashStrings(strs []string) uint64 {
	h := fnv.New64a()
	for _, s := range strs {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
