// Package engine wraps every self-join algorithm in the repository behind
// one Engine interface.
//
// The repository holds six complete join algorithms — Pass-Join
// (internal/core), ED-Join and All-Pairs-Ed (internal/edjoin), Trie-Join
// (internal/triejoin), NGPP (internal/ngpp) and Part-Enum
// (internal/partenum) — that the paper's evaluation compares. All of them
// are exact: on any input they produce the identical pair set, differing
// only in cost. That equivalence is the package's load-bearing contract,
// enforced by the cross-engine conformance suites and the brute-force
// differential fuzzer; the table exists so every consumer (benchmark,
// tests, fuzzer) constructs engines from one source of truth.
//
// Pass-Join measures fastest on every regime this repository has raced
// (cmd/experiments fig15, BenchmarkEngineJoin), so the library, passjoin
// and passjoind run nothing else: the others are the paper's Fig. 15
// baselines and cross-checking oracles.
package engine

import (
	"passjoin/internal/core"
	"passjoin/internal/metrics"
)

// SelfJoinFunc is a self-join algorithm's entry point: join strs at
// threshold tau and return pairs of original input indices with R < S,
// sorted by (R, S). st, when non-nil, receives instrumentation counters.
type SelfJoinFunc func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error)

// Engine is one self-join algorithm. Implementations are exact — the
// returned pair set must equal brute force on every input.
type Engine interface {
	// Name is the table key, a lowercase identifier ("passjoin",
	// "edjoin", ...).
	Name() string
	// SelfJoin is the algorithm's SelfJoinFunc.
	SelfJoin(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error)
}
