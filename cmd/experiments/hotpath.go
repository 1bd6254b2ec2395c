package main

import (
	"fmt"
	"math/rand"

	"passjoin/internal/verify"
)

// hotpath races the verification kernels on a batch-shaped workload (one
// query, many candidates): the before/after for the batched prober's Peq
// amortization (BENCH_hotpath.json, which also records the segment-table
// layout race linear probing won).
func (c *runConfig) hotpath() error {
	header("Verification kernels, batch-shaped workload (ns/pair)")
	w := newTable()
	fmt.Fprintln(w, "regime\tlen\tkernel\tns/pair")
	rng := rand.New(rand.NewSource(c.seed))
	for _, l := range []int{16, 40, 64, 200} {
		q, cands := kernelPairs(rng, 256, l)
		tau := 3
		var v verify.Verifier
		kernels := []struct {
			name string
			run  func() int
		}{
			{"myers/rebuild-per-pair", func() int {
				s := 0
				for _, cand := range cands {
					s += v.DistMyers(q, cand, tau)
				}
				return s
			}},
			{"myers/pattern-reuse", func() int {
				var pat verify.Pattern
				pat.Set(q)
				s := 0
				for _, cand := range cands {
					s += v.DistPattern(&pat, cand, tau)
				}
				return s
			}},
			{"banded-dp", func() int {
				s := 0
				for _, cand := range cands {
					s += v.Dist(q, cand, tau)
				}
				return s
			}},
		}
		for _, k := range kernels {
			k.run() // warm the pooled scratch
			const passes = 200
			var sink int
			elapsed := timeIt(func() {
				for p := 0; p < passes; p++ {
					sink += k.run()
				}
			})
			_ = sink
			perPair := float64(elapsed.Nanoseconds()) / float64(passes*len(cands))
			fmt.Fprintf(w, "l=%d\t%d\t%s\t%.1f\n", l, l, k.name, perPair)
		}
	}
	return w.Flush()
}

// kernelPairs builds one query and a batch of near-miss candidates of
// roughly length l.
func kernelPairs(rng *rand.Rand, n, l int) (string, []string) {
	b := make([]byte, l)
	for i := range b {
		b[i] = byte('a' + rng.Intn(6))
	}
	q := string(b)
	cands := make([]string, n)
	for i := range cands {
		cb := []byte(q)
		for e := 0; e <= rng.Intn(4); e++ {
			cb[rng.Intn(len(cb))] = byte('a' + rng.Intn(6))
		}
		cands[i] = string(cb)
	}
	return q, cands
}
