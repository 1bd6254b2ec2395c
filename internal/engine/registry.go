package engine

import (
	"fmt"
	"sort"
	"strings"

	"passjoin/internal/core"
	"passjoin/internal/edjoin"
	"passjoin/internal/metrics"
	"passjoin/internal/ngpp"
	"passjoin/internal/partenum"
	"passjoin/internal/triejoin"
)

// Auto is an alias of Default, accepted everywhere an engine name is and
// kept so that callers written when the name meant "let a planner choose"
// keep working: Pass-Join is what it chose on every corpus. It never
// appears in the registry itself.
const Auto = "auto"

// Default is the engine used when no explicit choice is made: Pass-Join,
// the paper's algorithm.
const Default = "passjoin"

// joinFunc adapts a plain join function plus its name into an Engine.
type joinFunc struct {
	name string
	join SelfJoinFunc
}

func (e *joinFunc) Name() string { return e.name }
func (e *joinFunc) SelfJoin(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
	return e.join(strs, tau, st)
}

// registry maps every engine name to its construction — the single
// source of truth shared by the public API, the engine benchmark and the
// conformance tests. Engines are stateless values, safe for concurrent
// use.
var registry = func() map[string]Engine {
	engines := []*joinFunc{
		{
			// Pass-Join (§3–§5 of the paper): partition into tau+1
			// segments, probe with multi-match-aware substring selection,
			// verify with shared-prefix extension. The robust default.
			name: "passjoin",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return core.SelfJoin(strs, core.Options{Tau: tau, Stats: st})
			},
		},
		{
			// ED-Join (Xiao/Wang/Lin, PVLDB 2008): positional q-gram
			// prefix filtering with location-based prefix shortening and
			// mismatch/content filters. The strongest gram baseline;
			// competitive on long strings.
			name: "edjoin",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return edjoin.Join(strs, tau, 2, st)
			},
		},
		{
			// All-Pairs-Ed (Bayardo/Ma/Srikant, WWW 2007): plain
			// count-based gram prefix filtering, no mismatch filters.
			name: "allpairs",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return edjoin.JoinConfig(strs, tau, edjoin.Config{Q: 2}, st)
			},
		},
		{
			// Plain positional q-gram prefix join at q=3 — All-Pairs-Ed
			// with the longer grams that favor long-string corpora, where
			// 3-grams are far more selective than 2-grams.
			name: "qgram",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return edjoin.JoinConfig(strs, tau, edjoin.Config{Q: 3, LocationPrefix: true}, st)
			},
		},
		{
			// Trie-Join (Wang/Feng/Li, PVLDB 2010): dual subtrie pruning
			// over a shared trie. Wins on short strings over small
			// alphabets, where subtries collapse early.
			name: "triejoin",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return triejoin.Join(strs, tau, st)
			},
		},
		{
			// NGPP (Wang/Xiao/Lin/Zhang, SIGMOD 2009): partition +
			// one-deletion neighborhood generation, the method whose
			// shift-based selection §4 of the Pass-Join paper extends.
			name: "ngpp",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return ngpp.Join(strs, tau, st)
			},
		},
		{
			// Part-Enum (Arasu/Ganti/Kaushik, VLDB 2006): gram-vector
			// partitioning under the Hamming bound 2qτ. Signature
			// selectivity collapses as tau grows.
			name: "partenum",
			join: func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return partenum.Join(strs, tau, 2, st)
			},
		},
	}
	m := make(map[string]Engine, len(engines))
	for _, e := range engines {
		m[e.name] = e
	}
	return m
}()

// Get returns the named engine; the empty name and "auto" return the
// default.
func Get(name string) (Engine, error) {
	if name == "" || name == Auto {
		name = Default
	}
	if e, ok := registry[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// All returns every registered engine, sorted by name.
func All() []Engine {
	out := make([]Engine, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Names returns every acceptable engine name — the registry plus "auto"
// — sorted.
func Names() []string {
	out := make([]string, 0, len(registry)+1)
	for name := range registry {
		out = append(out, name)
	}
	out = append(out, Auto)
	sort.Strings(out)
	return out
}

// Valid reports whether name is an acceptable engine name ("auto"
// included).
func Valid(name string) bool {
	_, ok := registry[name]
	return ok || name == Auto
}
