package engine

import (
	"passjoin/internal/core"
	"passjoin/internal/edjoin"
	"passjoin/internal/metrics"
	"passjoin/internal/ngpp"
	"passjoin/internal/partenum"
	"passjoin/internal/triejoin"
)

// joinFunc adapts a plain join function plus its name into an Engine.
type joinFunc struct {
	name string
	join SelfJoinFunc
}

func (e *joinFunc) Name() string { return e.name }
func (e *joinFunc) SelfJoin(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
	return e.join(strs, tau, st)
}

// registry is every engine, sorted by name — the single source of truth
// shared by the engine benchmark, the conformance tests and the fuzzer.
// Engines are stateless values, safe for concurrent use.
var registry = []Engine{
	// All-Pairs-Ed (Bayardo/Ma/Srikant, WWW 2007): plain count-based gram
	// prefix filtering, no mismatch filters.
	&joinFunc{"allpairs", func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return edjoin.JoinConfig(strs, tau, edjoin.Config{Q: 2}, st)
	}},
	// ED-Join (Xiao/Wang/Lin, PVLDB 2008): positional q-gram prefix
	// filtering with location-based prefix shortening and mismatch/content
	// filters. The strongest gram baseline; competitive on long strings.
	&joinFunc{"edjoin", func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return edjoin.Join(strs, tau, 2, st)
	}},
	// NGPP (Wang/Xiao/Lin/Zhang, SIGMOD 2009): partition + one-deletion
	// neighborhood generation, the method whose shift-based selection §4 of
	// the Pass-Join paper extends.
	&joinFunc{"ngpp", ngpp.Join},
	// Part-Enum (Arasu/Ganti/Kaushik, VLDB 2006): gram-vector partitioning
	// under the Hamming bound 2qτ. Signature selectivity collapses as tau
	// grows.
	&joinFunc{"partenum", func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return partenum.Join(strs, tau, 2, st)
	}},
	// Pass-Join (§3–§5 of the paper): partition into tau+1 segments, probe
	// with multi-match-aware substring selection, verify with shared-prefix
	// extension.
	&joinFunc{"passjoin", func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return core.SelfJoin(strs, core.Options{Tau: tau, Stats: st})
	}},
	// Plain positional q-gram prefix join at q=3 — All-Pairs-Ed with the
	// longer grams that favor long-string corpora, where 3-grams are far
	// more selective than 2-grams.
	&joinFunc{"qgram", func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return edjoin.JoinConfig(strs, tau, edjoin.Config{Q: 3, LocationPrefix: true}, st)
	}},
	// Trie-Join (Wang/Feng/Li, PVLDB 2010): dual subtrie pruning over a
	// shared trie. Wins on short strings over small alphabets, where
	// subtries collapse early.
	&joinFunc{"triejoin", triejoin.Join},
}

// All returns every registered engine, sorted by name.
func All() []Engine { return append([]Engine(nil), registry...) }
