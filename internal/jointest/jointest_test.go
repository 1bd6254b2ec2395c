// Package jointest cross-validates every join algorithm in the repository
// on the realistic corpus generators: all engines in the internal/engine
// registry (Pass-Join, ED-Join, All-Pairs-Ed, positional q-grams,
// Trie-Join, NGPP, Part-Enum) plus the Pass-Join selection/verification
// variants must agree exactly with brute force. This is the
// integration-level counterpart of the per-package equivalence tests, run
// on the same string regimes as the paper's evaluation — the regimes
// themselves live in internal/dataset so the conformance suite and the
// fuzzer draw from one source.
package jointest

import (
	"fmt"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/engine"
	"passjoin/internal/selection"
	"passjoin/internal/triejoin"
)

type joinFunc func(strs []string, tau int) ([]core.Pair, error)

// joiners routes every registered engine through the registry — one
// source of truth for engine construction — and adds the variants the
// registry does not expose: the trie search mode, the parallel Pass-Join
// path, and the selection×verification grid.
func joiners() map[string]joinFunc {
	out := map[string]joinFunc{
		"triesearch": func(s []string, tau int) ([]core.Pair, error) { return triejoin.JoinSearch(s, tau, nil) },
		"passjoin-parallel": func(s []string, tau int) ([]core.Pair, error) {
			return core.SelfJoin(s, core.Options{Tau: tau, Parallel: 4})
		},
	}
	for _, e := range engine.All() {
		e := e
		out["engine-"+e.Name()] = func(s []string, tau int) ([]core.Pair, error) {
			return e.SelfJoin(s, tau, nil)
		}
	}
	for _, sel := range selection.Methods {
		for _, vk := range core.VerifyKinds {
			sel, vk := sel, vk
			out[fmt.Sprintf("passjoin-%v-%v", sel, vk)] = func(s []string, tau int) ([]core.Pair, error) {
				return core.SelfJoin(s, core.Options{Tau: tau, Selection: sel, Verification: vk})
			}
		}
	}
	return out
}

// TestAllJoinersAgreeOnConformanceRegimes runs every joiner over the
// shared conformance regimes — the paper's evaluation corpora, the DNA
// small-alphabet regime, and the adversarial corpora (shared segments,
// binary bytes, mass duplicates, very long strings, empty corpus,
// strings shorter than tau) — and checks the exact pair set against
// brute force.
func TestAllJoinersAgreeOnConformanceRegimes(t *testing.T) {
	for _, regime := range dataset.JoinRegimes(5) {
		for _, tau := range regime.Taus {
			want := make(map[core.Pair]bool)
			for _, p := range bruteforce.SelfJoin(regime.Strs, tau) {
				want[core.Pair{R: p.R, S: p.S}] = true
			}
			for name, join := range joiners() {
				got, err := join(regime.Strs, tau)
				if err != nil {
					t.Fatalf("%s/%s/tau=%d: %v", regime.Name, name, tau, err)
				}
				if len(got) != len(want) {
					t.Errorf("%s/%s/tau=%d: %d pairs, want %d", regime.Name, name, tau, len(got), len(want))
					continue
				}
				for _, p := range got {
					if !want[p] {
						t.Errorf("%s/%s/tau=%d: spurious pair %v", regime.Name, name, tau, p)
						break
					}
				}
			}
		}
	}
}
