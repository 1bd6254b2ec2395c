package passjoin_test

// Every join in the repository goes through one conformance body: the
// public joins, Pass-Join's selection × verification variants and its
// join at four workers, and the paper's competitors (internal/edjoin, triejoin,
// ngpp, partenum) must return exactly brute force's pairs on every corpus
// regime the repository knows about — the paper's three corpora, the
// small-alphabet DNA regime, the adversarial corpora, and the degenerate
// edge cases (empty corpus, mass duplicates, strings shorter than the
// threshold). FuzzEngineEquivalence drives the paper's engines from arbitrary
// corpora, and BenchmarkEngineJoin times them.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"passjoin"
	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/edjoin"
	"passjoin/internal/metrics"
	"passjoin/internal/ngpp"
	"passjoin/internal/partenum"
	"passjoin/internal/selection"
	"passjoin/internal/triejoin"
)

// engineJoin is one self join: pairs of input indices with R < S, sorted
// by (R, S), counted into st.
type engineJoin struct {
	name string
	join func(strs []string, tau int, st *metrics.Stats) ([]core.Pair, error)
}

// paperEngines are the paper's algorithms under their short names: the
// rows the fuzzer and the engine benchmark range over.
var paperEngines = []engineJoin{
	// All-Pairs-Ed (Bayardo/Ma/Srikant, WWW 2007): count-based gram
	// prefix filtering, no mismatch filters.
	{"allpairs", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return edjoin.JoinConfig(s, tau, edjoin.Config{Q: 2}, st)
	}},
	// ED-Join (Xiao/Wang/Lin, PVLDB 2008): positional q-gram prefix
	// filtering with location-based prefix shortening and
	// mismatch/content filters.
	{"edjoin", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return edjoin.Join(s, tau, 2, st)
	}},
	// NGPP (Wang/Xiao/Lin/Zhang, SIGMOD 2009): partition + one-deletion
	// neighborhoods, the method §4's shift-based selection extends.
	{"ngpp", ngpp.Join},
	// Part-Enum (Arasu/Ganti/Kaushik, VLDB 2006): gram-vector
	// partitioning under the Hamming bound 2qτ.
	{"partenum", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return partenum.Join(s, tau, 2, st)
	}},
	// Pass-Join (§3–§5): multi-match selection, share-prefix
	// verification.
	{"passjoin", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return core.SelfJoin(s, core.Options{Tau: tau, Stats: st})
	}},
	// Positional q-gram prefix join at q=3, the grams that favor long
	// strings.
	{"qgram", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
		return edjoin.JoinConfig(s, tau, edjoin.Config{Q: 3, LocationPrefix: true}, st)
	}},
	// Trie-Join (Wang/Feng/Li, PVLDB 2010): dual subtrie pruning.
	{"triejoin", triejoin.Join},
}

// engines is the conformance table: the paper's algorithms, then
// Trie-Join's search mode, the public join and the Pass-Join variants.
var engines = func() []engineJoin {
	es := append(slices.Clone(paperEngines), []engineJoin{
		// Trie-Join's search mode: each string probes the trie in turn.
		{"triesearch", triejoin.JoinSearch},
		// The public join with no option: what the library picks by itself.
		{"auto", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
			var opts []passjoin.Option
			if st != nil {
				opts = append(opts, passjoin.WithStats((*passjoin.Stats)(st)))
			}
			pairs, err := passjoin.SelfJoin(s, tau, opts...)
			out := make([]core.Pair, len(pairs))
			for i, p := range pairs {
				out[i] = core.Pair{R: int32(p.R), S: int32(p.S)}
			}
			return out, err
		}},
		{"passjoin-parallel", func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
			return core.SelfJoin(s, core.Options{Tau: tau, Parallel: 4, Stats: st})
		}},
	}...)
	for _, sel := range selection.Methods {
		for _, vk := range core.VerifyKinds {
			es = append(es, engineJoin{fmt.Sprintf("passjoin-%v-%v", sel, vk), func(s []string, tau int, st *metrics.Stats) ([]core.Pair, error) {
				return core.SelfJoin(s, core.Options{Tau: tau, Selection: sel, Verification: vk, Stats: st})
			}})
		}
	}
	return es
}()

// checkEngines holds each engine of es to brute force on one corpus at one
// threshold, each in its own subtest: every engine must return exactly
// brute force's pairs sorted by (R, S), each once, and count its results
// into the stats it is given.
func checkEngines(t *testing.T, es []engineJoin, strs []string, tau int) {
	var want []core.Pair
	for _, p := range bruteforce.SelfJoin(strs, tau) {
		want = append(want, core.Pair{R: p.R, S: p.S})
	}
	slices.SortFunc(want, func(a, b core.Pair) int { return cmp.Or(cmp.Compare(a.R, b.R), cmp.Compare(a.S, b.S)) })
	for _, e := range es {
		t.Run(e.name, func(t *testing.T) {
			var st metrics.Stats
			got, err := e.join(strs, tau, &st)
			if err != nil {
				t.Fatalf("%v (corpus %q)", err, strs)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d pairs, want brute force's %d sorted by (R, S) (corpus %q)", len(got), len(want), strs)
			}
			if st.Results != int64(len(got)) {
				t.Fatalf("stats count %d results for %d pairs", st.Results, len(got))
			}
		})
	}
}

// TestEngineConformance runs the table over every regime and threshold,
// and the public R×S join over each regime's two halves.
func TestEngineConformance(t *testing.T) {
	for _, reg := range dataset.JoinRegimes(7) {
		for _, tau := range reg.Taus {
			t.Run(fmt.Sprintf("%s/tau=%d", reg.Name, tau), func(t *testing.T) {
				checkEngines(t, engines, reg.Strs, tau)
				h := len(reg.Strs) / 2
				t.Run("join", func(t *testing.T) { checkJoin(t, reg.Strs[:h], reg.Strs[h:], tau) })
			})
		}
	}
}

// TestAllJoinersAgreeOnConformanceRegimes holds the table to brute force
// on a second draw of the regimes (seed 5), so a pass is not a property
// of one set of corpora.
func TestAllJoinersAgreeOnConformanceRegimes(t *testing.T) {
	for _, reg := range dataset.JoinRegimes(5) {
		for _, tau := range reg.Taus {
			t.Run(fmt.Sprintf("%s/tau=%d", reg.Name, tau), func(t *testing.T) { checkEngines(t, engines, reg.Strs, tau) })
		}
	}
}

// TestEnginesFillStats: beyond the results, every engine given a stats
// sink counts the strings it scanned, the index it built, the candidates
// it produced and the DP cells it spent verifying them.
func TestEnginesFillStats(t *testing.T) {
	strs := dataset.Author(100, 8)
	for _, e := range engines {
		var st metrics.Stats
		got, err := e.join(strs, 2, &st)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: corpus too sparse, no pairs", e.name)
		}
		if st.Strings != int64(len(strs)) || st.IndexEntries == 0 || st.Candidates < st.Results || st.DPCells == 0 {
			t.Errorf("%s: stats %+v on %d strings, %d pairs", e.name, st, len(strs), len(got))
		}
	}
}

// TestEngineRSJoinConformance: on two sets drawn apart, every engine
// answers an R×S join through the disjoint-union reduction — self-join
// rset‖sset, keep the pairs that cross — so it must agree with brute force
// on the union, and the public Join with brute force's cross pairs.
func TestEngineRSJoinConformance(t *testing.T) {
	rset, sset := dataset.Author(120, 3), dataset.Author(150, 4)
	checkEngines(t, engines, append(slices.Clone(rset), sset...), 2)
	checkJoin(t, rset, sset, 2)
}

// checkJoin holds the public R×S join to brute force.
func checkJoin(t *testing.T, rset, sset []string, tau int) {
	var want []passjoin.Pair
	for _, p := range bruteforce.Join(rset, sset, tau) {
		want = append(want, passjoin.Pair{R: int(p.R), S: int(p.S)})
	}
	slices.SortFunc(want, byRS)
	got, err := passjoin.Join(rset, sset, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Join: %d pairs, want %d (pair sets differ)", len(got), len(want))
	}
}

// FuzzEngineEquivalence is the conformance body for the paper's engines on
// an arbitrary corpus (the newline-split fuzz input, so the fuzzer mutates
// string contents, lengths and counts freely) and threshold. The Pass-Join
// variants share the passjoin row's code paths and are left to the regime
// tests, so each input goes to seven engines.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte("abc\nabd\nxyz\nab"), uint8(1))
	f.Add([]byte("dup\ndup\ndup\ndop\ndu\n"), uint8(2))
	f.Add([]byte("aaaaaaaabbbb\naaaaaaaacbbb\nbaaaaaaabbbb"), uint8(3))
	f.Add([]byte("\x00\x01\x02\n\x00\x01\x03\n\xff\xfe"), uint8(1))
	f.Add([]byte(""), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, rawTau uint8) {
		if len(data) > 1<<10 {
			return // keep brute force affordable
		}
		var strs []string
		for _, line := range bytes.Split(data, []byte("\n")) {
			strs = append(strs, string(line))
		}
		checkEngines(t, paperEngines, strs[:min(len(strs), 48)], 1+int(rawTau%4))
	})
}

// BenchmarkEngineJoin times the paper's engines on one small canonical
// regime (author names, tau=2) and reports ns/pair, the engine-comparison
// trajectory recorded in BENCH_engines.json.
func BenchmarkEngineJoin(b *testing.B) {
	strs := dataset.Author(1000, 1)
	for _, e := range paperEngines {
		b.Run(e.name, func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				got, err := e.join(strs, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(got)
			}
			if pairs > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			}
		})
	}
}

// byRS orders pairs as the joins return them.
func byRS(a, b passjoin.Pair) int { return cmp.Or(a.R-b.R, a.S-b.S) }

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
