package passjoin_test

// The cross-engine conformance suite: every engine the registry exposes
// (and the "auto" alias) must return the identical pair set as the
// default Pass-Join path through the *public* API, on every corpus
// regime the repository knows about — the paper's three corpora, the
// small-alphabet DNA regime, the adversarial corpora, and the degenerate
// edge cases (empty corpus, mass duplicates, strings shorter than the
// threshold). This is the load-bearing contract of the engine subsystem:
// engines may differ only in cost, never in answers.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"passjoin"
	"passjoin/internal/dataset"
)

func TestEngineConformance(t *testing.T) {
	for _, reg := range dataset.JoinRegimes(7) {
		for _, tau := range reg.Taus {
			want, err := passjoin.SelfJoin(reg.Strs, tau)
			if err != nil {
				t.Fatalf("%s/tau=%d: reference join: %v", reg.Name, tau, err)
			}
			for _, name := range passjoin.Engines() {
				t.Run(fmt.Sprintf("%s/tau=%d/%s", reg.Name, tau, name), func(t *testing.T) {
					var st passjoin.Stats
					got, err := passjoin.SelfJoin(reg.Strs, tau, passjoin.WithEngine(name), passjoin.WithStats(&st))
					if err != nil {
						t.Fatalf("engine %s: %v", name, err)
					}
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("engine %s: %d pairs, want %d (pair sets differ)", name, len(got), len(want))
					}
					if st.Engine == "" {
						t.Fatalf("engine %s: Stats.Engine not reported", name)
					}
					ran := name
					if name == "auto" {
						ran = "passjoin"
					}
					if st.Engine != ran {
						t.Fatalf("engine %s: Stats.Engine = %q", name, st.Engine)
					}
				})
			}
		}
	}
}

// The streaming forms must re-deliver exactly the materialized pair set,
// in order, for a materializing engine.
func TestEngineStreamingMatchesMaterialized(t *testing.T) {
	strs := dataset.Author(200, 11)
	want, err := passjoin.SelfJoin(strs, 2, passjoin.WithEngine("triejoin"))
	if err != nil {
		t.Fatal(err)
	}
	var got []passjoin.Pair
	err = passjoin.SelfJoinEach(strs, 2, func(r, s int) bool {
		got = append(got, passjoin.Pair{R: r, S: s})
		return true
	}, passjoin.WithEngine("triejoin"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %d pairs != materialized %d", len(got), len(want))
	}
	// Early stop still honored on the drain path.
	n := 0
	err = passjoin.SelfJoinEach(strs, 2, func(r, s int) bool {
		n++
		return n < 3
	}, passjoin.WithEngine("triejoin"))
	if err != nil || n != 3 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

// R×S joins run through the disjoint-union reduction for every engine
// and must agree with Pass-Join's native R×S path.
func TestEngineRSJoinConformance(t *testing.T) {
	rset := dataset.Author(120, 3)
	sset := dataset.Author(150, 4)
	want, err := passjoin.Join(rset, sset, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range passjoin.Engines() {
		got, err := passjoin.Join(rset, sset, 2, passjoin.WithEngine(name))
		if err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("engine %s: %d pairs, want %d (pair sets differ)", name, len(got), len(want))
		}
	}
}

func TestWithEngineUnknownName(t *testing.T) {
	if _, err := passjoin.SelfJoin([]string{"a"}, 1, passjoin.WithEngine("nope")); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// All six join entry points go through one dispatch: with no engine
// option, with the default's name, with its "auto" alias and with a
// materializing baseline each returns the same pair set, reports the
// engine that ran and fills the attached counters.
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
	engines := []struct{ option, ran string }{
		{"", "passjoin"}, {"passjoin", "passjoin"}, {"auto", "passjoin"}, {"edjoin", "edjoin"},
	}
	for _, e := range entries {
		for _, eng := range engines {
			t.Run(e.name+"/"+cmp.Or(eng.option, "default"), func(t *testing.T) {
				var st passjoin.Stats
				opts := []passjoin.Option{passjoin.WithStats(&st)}
				if eng.option != "" {
					opts = append(opts, passjoin.WithEngine(eng.option))
				}
				got, err := e.run(opts...)
				if err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(got, func(a, b passjoin.Pair) int {
					return cmp.Or(a.R-b.R, a.S-b.S)
				})
				if !reflect.DeepEqual(got, e.want) {
					t.Fatalf("%d pairs, want %d (pair sets differ)", len(got), len(e.want))
				}
				if st.Engine != eng.ran {
					t.Errorf("Stats.Engine = %q, want %q", st.Engine, eng.ran)
				}
				if st.Strings == 0 || st.Candidates == 0 || st.Results < int64(len(got)) {
					t.Errorf("counters not filled: strings=%d candidates=%d results=%d for %d pairs",
						st.Strings, st.Candidates, st.Results, len(got))
				}
			})
		}
	}
}

// No baseline watches a context, so a cancellable streaming join runs one
// on a helper goroutine: cancellation must return ctx.Err() while the
// engine is still running — before any pair is re-delivered and in a
// fraction of the time the engine takes — not when its run ends.
func TestSelfJoinEachCtxCancelAbandonsEngine(t *testing.T) {
	base := strings.Repeat("kaushik chakrabarti ", 3)
	corpus := make([]string, 2000)
	for i := range corpus {
		b := []byte(base)
		b[i%len(b)] = byte('a' + i%4)
		corpus[i] = string(b)
	}
	run := func(ctx context.Context) (yielded int, took time.Duration, err error) {
		start := time.Now()
		err = passjoin.SelfJoinEachCtx(ctx, corpus, 3, func(r, s int) bool {
			yielded++
			return true
		}, passjoin.WithEngine("triejoin"))
		return yielded, time.Since(start), err
	}
	pairs, full, err := run(context.Background())
	if err != nil || pairs == 0 {
		t.Fatalf("uncancelled run: %d pairs, %v", pairs, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), full/20)
	defer cancel()
	yielded, took, err := run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want the context's deadline error", err, took)
	}
	if yielded != 0 || took > full/2 {
		t.Fatalf("cancelled join returned after %v and %d pairs; the engine alone takes %v", took, yielded, full)
	}
}
