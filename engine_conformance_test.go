package passjoin_test

// The public joins against the paper's Fig. 15 competitors: on every corpus
// regime the repository knows about — the paper's three corpora, the
// small-alphabet DNA regime, the adversarial corpora, and the degenerate
// edge cases (empty corpus, mass duplicates, strings shorter than the
// threshold) — SelfJoin and Join must return exactly what every oracle of
// internal/engine and brute force return, and all six entry points must
// agree with each other.

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"passjoin"
	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
	"passjoin/internal/engine"
)

// TestEngineConformance holds every oracle to brute force and the public
// SelfJoin with no option — "auto", the join the library picks by itself —
// to the same pairs.
func TestEngineConformance(t *testing.T) {
	for _, reg := range dataset.JoinRegimes(7) {
		for _, tau := range reg.Taus {
			var want []passjoin.Pair
			for _, p := range bruteforce.SelfJoin(reg.Strs, tau) {
				want = append(want, passjoin.Pair{R: int(p.R), S: int(p.S)})
			}
			slices.SortFunc(want, byRS)
			joins := map[string]func() ([]passjoin.Pair, error){
				"auto": func() ([]passjoin.Pair, error) { return passjoin.SelfJoin(reg.Strs, tau) },
			}
			for _, e := range engine.All() {
				joins[e.Name()] = func() ([]passjoin.Pair, error) {
					pairs, err := e.SelfJoin(reg.Strs, tau, nil)
					out := make([]passjoin.Pair, len(pairs))
					for i, p := range pairs {
						out[i] = passjoin.Pair{R: int(p.R), S: int(p.S)}
					}
					return out, err
				}
			}
			for name, join := range joins {
				t.Run(fmt.Sprintf("%s/tau=%d/%s", reg.Name, tau, name), func(t *testing.T) {
					got, err := join()
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%d pairs, want %d (pair sets differ)", len(got), len(want))
					}
				})
			}
		}
	}
}

// byRS orders pairs as the joins return them.
func byRS(a, b passjoin.Pair) int { return cmp.Or(a.R-b.R, a.S-b.S) }

// Every oracle answers an R×S join through the disjoint-union reduction —
// self-join rset‖sset, keep the pairs that cross the boundary — with the
// pairs of the public Join.
func TestEngineRSJoinConformance(t *testing.T) {
	rset := dataset.Author(120, 3)
	sset := dataset.Author(150, 4)
	want, err := passjoin.Join(rset, sset, 2)
	if err != nil {
		t.Fatal(err)
	}
	union := append(slices.Clone(rset), sset...)
	for _, e := range engine.All() {
		pairs, err := e.SelfJoin(union, 2, nil)
		if err != nil {
			t.Fatalf("engine %s: %v", e.Name(), err)
		}
		var got []passjoin.Pair
		for _, p := range pairs {
			if r, s := int(p.R), int(p.S); r < len(rset) && s >= len(rset) {
				got = append(got, passjoin.Pair{R: r, S: s - len(rset)})
			}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("engine %s: %d pairs, want %d (pair sets differ)", e.Name(), len(got), len(want))
		}
	}
}

// All six join entry points go through one dispatch: each returns the same
// pair set and fills the attached counters.
func TestJoinEntryPointsDispatch(t *testing.T) {
	reg := dataset.JoinRegimes(7)[0] // author
	const tau = 2
	rset, sset := reg.Strs[:len(reg.Strs)/2], reg.Strs[len(reg.Strs)/2:]
	wantSelf, err := passjoin.SelfJoin(reg.Strs, tau)
	if err != nil {
		t.Fatal(err)
	}
	wantRS, err := passjoin.Join(rset, sset, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSelf) == 0 || len(wantRS) == 0 {
		t.Fatalf("corpus too sparse: %d self pairs, %d cross pairs", len(wantSelf), len(wantRS))
	}
	ctx := context.Background()
	each := func(join func(yield func(r, s int) bool, opts ...passjoin.Option) error) func(...passjoin.Option) ([]passjoin.Pair, error) {
		return func(opts ...passjoin.Option) ([]passjoin.Pair, error) {
			var got []passjoin.Pair
			err := join(func(r, s int) bool {
				got = append(got, passjoin.Pair{R: r, S: s})
				return true
			}, opts...)
			return got, err
		}
	}
	entries := []struct {
		name string
		want []passjoin.Pair
		run  func(...passjoin.Option) ([]passjoin.Pair, error)
	}{
		{"SelfJoin", wantSelf, func(opts ...passjoin.Option) ([]passjoin.Pair, error) {
			return passjoin.SelfJoin(reg.Strs, tau, opts...)
		}},
		{"Join", wantRS, func(opts ...passjoin.Option) ([]passjoin.Pair, error) {
			return passjoin.Join(rset, sset, tau, opts...)
		}},
		{"SelfJoinEach", wantSelf, each(func(y func(r, s int) bool, opts ...passjoin.Option) error {
			return passjoin.SelfJoinEach(reg.Strs, tau, y, opts...)
		})},
		{"JoinEach", wantRS, each(func(y func(r, s int) bool, opts ...passjoin.Option) error {
			return passjoin.JoinEach(rset, sset, tau, y, opts...)
		})},
		{"SelfJoinEachCtx", wantSelf, each(func(y func(r, s int) bool, opts ...passjoin.Option) error {
			return passjoin.SelfJoinEachCtx(ctx, reg.Strs, tau, y, opts...)
		})},
		{"JoinEachCtx", wantRS, each(func(y func(r, s int) bool, opts ...passjoin.Option) error {
			return passjoin.JoinEachCtx(ctx, rset, sset, tau, y, opts...)
		})},
	}
	for _, e := range entries {
		t.Run(e.name+"/default", func(t *testing.T) {
			var st passjoin.Stats
			got, err := e.run(passjoin.WithStats(&st))
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, byRS)
			if !reflect.DeepEqual(got, e.want) {
				t.Fatalf("%d pairs, want %d (pair sets differ)", len(got), len(e.want))
			}
			if st.Strings == 0 || st.Candidates == 0 || st.Results < int64(len(got)) {
				t.Errorf("counters not filled: strings=%d candidates=%d results=%d for %d pairs",
					st.Strings, st.Candidates, st.Results, len(got))
			}
		})
	}
}
