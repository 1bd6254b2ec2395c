package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/edjoin"
	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/ngpp"
	"passjoin/internal/partenum"
	"passjoin/internal/partition"
	"passjoin/internal/selection"
	"passjoin/internal/triejoin"
)

// The paper's orders of its selection and verification methods, weakest
// first.
var (
	selections    = []selection.Method{selection.Length, selection.Shift, selection.Position, selection.MultiMatch}
	verifications = []core.VerifyKind{core.VerifyNaive, core.VerifyLengthAware, core.VerifyExtension, core.VerifyExtensionShared, core.VerifyMyers}
)

// headers returns each name with suffix appended.
func headers(names []string, suffix string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + suffix
	}
	return out
}

func names[T fmt.Stringer](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}

// join runs one Pass-Join self join and returns its counters and time.
func join(tb testing.TB, strs []string, opt core.Options) (metrics.Stats, time.Duration) {
	return timed(tb, func(st *metrics.Stats) ([]core.Pair, error) {
		opt.Stats = st
		return core.SelfJoin(strs, opt)
	})
}

// timed runs one join and returns its counters and time.
func timed(tb testing.TB, f func(*metrics.Stats) ([]core.Pair, error)) (metrics.Stats, time.Duration) {
	var st metrics.Stats
	var err error
	d := timeIt(func() { _, err = f(&st) })
	if err != nil {
		tb.Fatal(err)
	}
	return st, d
}

func table2(r *run) figure {
	t := newTable("", "Dataset", "Cardinality", "Avg Len", "Max Len", "Min Len")
	for _, sp := range specs {
		s := dataset.Summarize(corpus(r.tb, sp))
		t.add(sp.name, s.Cardinality, fmt.Sprintf("%.3f", s.AvgLen), s.MaxLen, s.MinLen)
	}
	return figure{title: "Table 2: Datasets", tables: []*table{t}}
}

func fig11(r *run) figure {
	f := figure{title: "Figure 11: String length distributions", note: "Non-empty bins; the bar is 40 characters at the largest bin."}
	for _, sp := range specs {
		strs := corpus(r.tb, sp)
		bins := dataset.LengthHistogram(strs, sp.histBin)
		top := 1
		for _, b := range bins {
			top = max(top, b.Count)
		}
		t := newTable(fmt.Sprintf("%s (avg len %.1f)", sp.name, dataset.Summarize(strs).AvgLen), "Length", "Strings", "bar")
		for _, b := range bins {
			if b.Count > 0 {
				t.add(fmt.Sprintf("[%d,%d)", b.Lo, b.Hi), b.Count, strings.Repeat("#", b.Count*40/top))
			}
		}
		f.tables = append(f.tables, t)
	}
	return f
}

func fig12(r *run) figure {
	f := figure{title: "Figure 12: Numbers of selected substrings"}
	for _, sp := range specs {
		strs := corpus(r.tb, sp)
		t := newTable(sp.name, append([]string{"τ"}, names(selections)...)...)
		for _, tau := range sp.taus {
			row := []any{tau}
			for _, m := range selections {
				n, _ := core.SelectionScan(strs, tau, m)
				row = append(row, n)
			}
			t.add(row...)
		}
		f.tables = append(f.tables, t)
	}
	return f
}

func fig13(r *run) figure {
	f := figure{title: "Figure 13: Substring generation time", note: "The scans of Figure 12, timed."}
	for _, sp := range specs {
		strs := corpus(r.tb, sp)
		t := newTable(sp.name, append([]string{"τ"}, headers(names(selections), " ms")...)...)
		for _, tau := range sp.taus {
			row := []any{tau}
			for _, m := range selections {
				if !r.full {
					row = append(row, keep) // nothing to count: Figure 12 counts these scans
					continue
				}
				row = append(row, r.ms(timeIt(func() { core.SelectionScan(strs, tau, m) })))
			}
			t.add(row...)
		}
		f.tables = append(f.tables, t)
	}
	return f
}

func fig14(r *run) figure {
	f := figure{
		title: "Figure 14: Verification methods",
		note: "Selection is multi-match throughout, as in the paper. Every method sits behind the same signature filter, so candidates " +
			"and signature rejects are the method's input, the same for all five. The extension methods count one verification per " +
			"attempted alignment. The 2τ+1 column times the band's scalar cells and the other banded ones its word kernel (one 64-bit " +
			"step per row), so its time mixes two kernels; the DP cells do not, since both kernels count the same cells.",
	}
	vs := names(verifications)
	for _, sp := range specs {
		strs := corpus(r.tb, sp)
		h := append([]string{"τ", "results", "candidates", "sig rejects"}, headers(vs, " verifications")...)
		h = append(append(h, headers(vs, " DP cells")...), headers(vs, " ms")...)
		t := newTable(sp.name, h...)
		for _, tau := range sp.taus {
			var st metrics.Stats
			var vers, cells, times []any
			for _, vk := range verifications {
				var d time.Duration
				st, d = join(r.tb, strs, core.Options{Tau: tau, Verification: vk})
				vers, cells, times = append(vers, st.Verifications), append(cells, st.DPCells), append(times, r.ms(d))
			}
			t.add(append(append(append([]any{tau, st.Results, st.Candidates, st.SigRejects}, vers...), cells...), times...)...)
		}
		f.tables = append(f.tables, t)
	}
	return f
}

// fig15 races Pass-Join against ED-Join and Trie-Join. A check run computes
// each corpus's smallest τ only. At that τ Pass-Join's best time must be at
// least twice as fast as either competitor's, best of up to three runs:
// every engine runs again while the margin fails (the thinnest margin
// measured at this scale was 4.3×, so a second run means a noisy machine).
func fig15(r *run) figure {
	f := figure{
		title: "Figure 15: Comparison with ED-Join and Trie-Join",
		note:  "Total time, index build included. Trie-Join counts the trie nodes it keeps active as candidates.",
	}
	engines := []string{"EdJoin", "TrieJoin", "PassJoin"}
	for _, sp := range specs {
		strs := corpus(r.tb, sp)
		h := append([]string{"τ", "results"}, headers(engines, " candidates")...)
		h = append(append(h, headers(engines, " DP cells")...), headers(engines, " ms")...)
		t := newTable(fmt.Sprintf("%s (EdJoin q=%d)", sp.name, sp.edq), h...)
		for i, tau := range sp.taus {
			if i > 0 && !r.full {
				t.add(tau, keep, keep, keep, keep, keep, keep, keep, keep, keep, keep)
				continue
			}
			runs := []func(*metrics.Stats) ([]core.Pair, error){
				func(st *metrics.Stats) ([]core.Pair, error) { return edjoin.Join(strs, tau, sp.edq, st) },
				func(st *metrics.Stats) ([]core.Pair, error) { return triejoin.Join(strs, tau, st) },
				func(st *metrics.Stats) ([]core.Pair, error) {
					return core.SelfJoin(strs, core.Options{Tau: tau, Stats: st})
				},
			}
			sts := make([]metrics.Stats, len(runs))
			best := make([]time.Duration, len(runs))
			slow := func() bool { return 2*best[2] > best[0] || 2*best[2] > best[1] }
			for k := 0; k == 0 || i == 0 && k < 3 && slow(); k++ {
				for e, run := range runs {
					st, d := timed(r.tb, run)
					if k == 0 || d < best[e] {
						sts[e], best[e] = st, d
					}
				}
			}
			if sts[0].Results != sts[2].Results || sts[1].Results != sts[2].Results {
				r.tb.Fatalf("%s τ=%d: results differ: EdJoin %d, TrieJoin %d, PassJoin %d", sp.name, tau, sts[0].Results, sts[1].Results, sts[2].Results)
			}
			if i == 0 && slow() {
				r.tb.Errorf("Figure 15, %s τ=%d: Pass-Join %v is not twice as fast as EdJoin %v and TrieJoin %v (best of 3)", sp.name, tau, best[2], best[0], best[1])
			}
			t.add(tau, sts[2].Results,
				sts[0].Candidates, sts[1].Candidates, sts[2].Candidates,
				sts[0].DPCells, sts[1].DPCells, sts[2].DPCells,
				r.ms(best[0]), r.ms(best[1]), r.ms(best[2]))
		}
		f.tables = append(f.tables, t)
	}
	return f
}

// fig16 joins growing prefixes of each corpus at its four largest
// thresholds. Candidates and verifications must grow with the corpus: a
// prefix's candidate pairs are a subset of a longer prefix's.
func fig16(r *run) figure {
	f := figure{title: "Figure 16: Scalability", note: "Pass-Join on the first n strings of each corpus, n in sixths."}
	for _, sp := range specs {
		full := corpus(r.tb, sp)
		taus := sp.taus[max(0, len(sp.taus)-4):]
		var ts []string
		for _, tau := range taus {
			ts = append(ts, fmt.Sprintf("τ=%d", tau))
		}
		h := append([]string{"size"}, headers(ts, " candidates")...)
		h = append(append(h, headers(ts, " verifications")...), headers(ts, " ms")...)
		t := newTable(sp.name, h...)
		prev := make([]metrics.Stats, len(taus))
		for step := 1; step <= 6; step++ {
			n := len(full) * step / 6
			var cands, vers, times []any
			for i, tau := range taus {
				st, d := join(r.tb, full[:n], core.Options{Tau: tau})
				if st.Candidates < prev[i].Candidates || st.Verifications < prev[i].Verifications {
					r.tb.Errorf("Figure 16, %s τ=%d: %d strings count %d candidates / %d verifications, fewer than a smaller prefix's %d / %d",
						sp.name, tau, n, st.Candidates, st.Verifications, prev[i].Candidates, prev[i].Verifications)
				}
				prev[i] = st
				cands, vers, times = append(cands, st.Candidates), append(vers, st.Verifications), append(times, r.ms(d))
			}
			t.add(append(append(append([]any{n}, cands...), vers...), times...)...)
		}
		f.tables = append(f.tables, t)
	}
	return f
}

// table3 reports whole-corpus index sizes. Pass-Join's index (τ=4) must be
// the smallest and Trie-Join's the largest on every corpus.
func table3(r *run) figure {
	t := newTable("", "Dataset", "Data bytes (MB)", "EdJoin(q=4) bytes (MB)", "TrieJoin bytes (MB)", "PassJoin(τ=4) bytes (MB)")
	size := func(b int64) string { return fmt.Sprintf("%d (%.2f)", b, float64(b)/(1<<20)) }
	for _, sp := range specs {
		strs := corpus(r.tb, sp)
		ed, _ := edjoin.IndexFootprint(strs, 4, 4)
		trie, _ := triejoin.IndexFootprint(strs)
		fz, err := index.BuildFrozen(strs, 4, 1)
		if err != nil {
			r.tb.Fatal(err)
		}
		pass := fz.MapBytes()
		if !(pass < ed && ed < trie) {
			r.tb.Errorf("Table 3, %s: index bytes PassJoin %d, EdJoin %d, TrieJoin %d; want them in increasing order", sp.name, pass, ed, trie)
		}
		t.add(sp.name, size(dataset.Summarize(strs).TotalBytes), size(ed), size(trie), size(pass))
	}
	return figure{title: "Table 3: Index sizes", note: "ED-Join's full prefix-gram index at q=4, τ=4; Trie-Join's trie; Pass-Join's segment index at τ=4.", tables: []*table{t}}
}

// ablationCorpus is the corpus the ablations run on: author names.
func ablationCorpus(r *run) []string { return corpus(r.tb, specs[0]) }

func ablationA(r *run) figure {
	strs := ablationCorpus(r)
	const tau = 2
	vs := names(verifications[:4])
	h := append([]string{"selection", "substrings", "candidates"}, headers(vs, " DP cells")...)
	t := newTable("", append(h, headers(vs, " ms")...)...)
	for _, sel := range selections {
		var st metrics.Stats
		var cells, times []any
		for _, vk := range verifications[:4] {
			var d time.Duration
			st, d = join(r.tb, strs, core.Options{Tau: tau, Selection: sel, Verification: vk})
			cells, times = append(cells, st.DPCells), append(times, r.ms(d))
		}
		t.add(append(append([]any{sel, st.SelectedSubstrings, st.Candidates}, cells...), times...)...)
	}
	return figure{title: "Ablation A: selection × verification", note: "author, τ=2: the full matrix of the paper's one-dimension-at-a-time Figures 12–14.", tables: []*table{t}}
}

func ablationB(r *run) figure {
	strs := ablationCorpus(r)
	baselines := []struct {
		name string
		join func(tau int, st *metrics.Stats) ([]core.Pair, error)
	}{
		{"AllPairsEd", func(tau int, st *metrics.Stats) ([]core.Pair, error) {
			return edjoin.JoinConfig(strs, tau, edjoin.Config{Q: specs[0].edq}, st)
		}},
		{"EdJoin", func(tau int, st *metrics.Stats) ([]core.Pair, error) { return edjoin.Join(strs, tau, specs[0].edq, st) }},
		// Part-Enum at its customary small gram length: large grams make
		// the Hamming bound 2qτ vacuous on short strings.
		{"PartEnum", func(tau int, st *metrics.Stats) ([]core.Pair, error) { return partenum.Join(strs, tau, 2, st) }},
		{"NGPP", func(tau int, st *metrics.Stats) ([]core.Pair, error) { return ngpp.Join(strs, tau, st) }},
		{"PassJoin", func(tau int, st *metrics.Stats) ([]core.Pair, error) {
			return core.SelfJoin(strs, core.Options{Tau: tau, Stats: st})
		}},
	}
	var bs []string
	for _, b := range baselines {
		bs = append(bs, b.name)
	}
	t := newTable("", append(append([]string{"τ", "results"}, headers(bs, " candidates")...), headers(bs, " ms")...)...)
	for _, tau := range specs[0].taus[:3] {
		var results int64
		var cands, times []any
		for _, b := range baselines {
			st, d := timed(r.tb, func(st *metrics.Stats) ([]core.Pair, error) { return b.join(tau, st) })
			results = st.Results
			cands, times = append(cands, st.Candidates), append(times, r.ms(d))
		}
		t.add(append(append([]any{tau, results}, cands...), times...)...)
	}
	return figure{title: "Ablation B: secondary baselines", note: "author; total time.", tables: []*table{t}}
}

func ablationC(r *run) figure {
	strs := ablationCorpus(r)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.procs))
	t := newTable("", "workers", "candidates", "results", "ms", "speedup")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		st, d := join(r.tb, strs, core.Options{Tau: 3, Parallel: workers})
		if workers == 1 {
			base = d
		}
		speedup := keep
		if r.full {
			speedup = fmt.Sprintf("%.2fx", float64(base)/float64(d))
		}
		t.add(workers, st.Candidates, st.Results, r.ms(d), speedup)
	}
	return figure{title: "Ablation C: parallel probe speedup", note: "author, τ=3, at the GOMAXPROCS the test started with (the machine's CPUs unless set).", tables: []*table{t}}
}

func ablationD(r *run) figure {
	st, _ := join(r.tb, ablationCorpus(r), core.Options{Tau: 3})
	t := newTable("", "counter", "value")
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"selected substrings", st.SelectedSubstrings},
		{"index lookups", st.Lookups},
		{"lookup hits", st.LookupHits},
		{"candidate occurrences", st.Candidates},
		{"signature rejects", st.SigRejects},
		{"verifications", st.Verifications},
		{"early terminations", st.EarlyTerms},
		{"shared DP rows", st.SharedRows},
		{"results", st.Results},
	} {
		t.add(c.name, c.v)
	}
	return figure{title: "Ablation D: candidate funnel", note: "author, τ=3, multi-match selection + share-prefix verification.", tables: []*table{t}}
}

// TestMultiMatchBound pins Figure 12's bound (Lemma 2): for every string
// and every length it probes, multi-match selects at most
// ⌊(τ²−Δ²)/2⌋+τ+1 substrings over the τ+1 segments.
func TestMultiMatchBound(t *testing.T) {
	for _, sp := range specs {
		for _, tau := range sp.taus {
			for _, s := range corpus(t, sp) {
				for l := max(tau+1, len(s)-tau); l <= len(s); l++ {
					n := 0
					for i := 1; i <= tau+1; i++ {
						lo, hi := selection.MultiMatch.Window(len(s), l, tau, i, partition.SegPos(l, tau, i), partition.SegLen(l, tau, i))
						n += max(0, hi-lo+1)
					}
					if bound := selection.MultiMatch.TheoreticalTotal(len(s), l, tau); n > bound {
						t.Fatalf("%s τ=%d: %q against length %d selects %d substrings, bound %d", sp.name, tau, s, l, n, bound)
					}
				}
			}
		}
	}
}
