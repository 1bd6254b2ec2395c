package main

import (
	"fmt"
	"time"

	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/edjoin"
	"passjoin/internal/metrics"
	"passjoin/internal/ngpp"
	"passjoin/internal/selection"
	"passjoin/internal/triejoin"
)

// table2 reproduces Table 2: dataset statistics.
func (c *runConfig) table2() error {
	header("Table 2: Datasets (synthetic, scale=" + c.scale + ")")
	w := newTable()
	fmt.Fprintln(w, "Dataset\tCardinality\tAvg Len\tMax Len\tMin Len")
	for _, spec := range c.specs {
		s := dataset.Summarize(c.corpus(spec))
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%d\t%d\n", spec.name, s.Cardinality, s.AvgLen, s.MaxLen, s.MinLen)
	}
	return w.Flush()
}

// fig11 reproduces Figure 11: string length distributions.
func (c *runConfig) fig11() error {
	header("Figure 11: String length distributions")
	for _, spec := range c.specs {
		strs := c.corpus(spec)
		bins := dataset.LengthHistogram(strs, spec.histBin)
		// Find the largest bucket to scale the bars.
		maxCount := 1
		for _, b := range bins {
			if b.Count > maxCount {
				maxCount = b.Count
			}
		}
		fmt.Printf("\n-- %s (avg len %.1f) --\n", spec.name, dataset.Summarize(strs).AvgLen)
		w := newTable()
		for _, b := range bins {
			if b.Count == 0 {
				continue
			}
			bar := ""
			for i := 0; i < b.Count*40/maxCount; i++ {
				bar += "#"
			}
			fmt.Fprintf(w, "[%d,%d)\t%d\t%s\n", b.Lo, b.Hi, b.Count, bar)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fig12 reproduces Figure 12: numbers of selected substrings per selection
// method across thresholds.
func (c *runConfig) fig12() error {
	header("Figure 12: Numbers of selected substrings")
	for _, spec := range c.specs {
		strs := c.corpus(spec)
		fmt.Printf("\n-- %s --\n", spec.name)
		w := newTable()
		fmt.Fprintln(w, "tau\tLength\tShift\tPosition\tMulti-Match")
		for _, tau := range spec.taus {
			fmt.Fprintf(w, "%d", tau)
			for _, m := range []selection.Method{selection.Length, selection.Shift, selection.Position, selection.MultiMatch} {
				count, _ := core.SelectionScan(strs, tau, m)
				fmt.Fprintf(w, "\t%d", count)
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fig13 reproduces Figure 13: elapsed time for generating substrings.
func (c *runConfig) fig13() error {
	header("Figure 13: Substring generation time (ms)")
	for _, spec := range c.specs {
		strs := c.corpus(spec)
		fmt.Printf("\n-- %s --\n", spec.name)
		w := newTable()
		fmt.Fprintln(w, "tau\tLength\tShift\tPosition\tMulti-Match")
		for _, tau := range spec.taus {
			fmt.Fprintf(w, "%d", tau)
			for _, m := range []selection.Method{selection.Length, selection.Shift, selection.Position, selection.MultiMatch} {
				d := timeIt(func() { core.SelectionScan(strs, tau, m) })
				fmt.Fprintf(w, "\t%s", ms(d))
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fig14 reproduces Figure 14: elapsed join time under the four
// verification methods (selection fixed to multi-match, as in the paper).
// Every method sits behind the same signature filter, so the table also
// says how many candidate occurrences there were and how many the filter
// dropped before any verifier ran (the same for every method). The 2τ+1
// column times the band's scalar cells and the others its word kernel
// (see the package comment).
func (c *runConfig) fig14() error {
	header("Figure 14: Verification methods, join time (ms)")
	for _, spec := range c.specs {
		strs := c.corpus(spec)
		fmt.Printf("\n-- %s --\n", spec.name)
		w := newTable()
		fmt.Fprintln(w, "tau\t2tau+1\ttau+1\tExtension\tSharePrefix\tMyers\tresults\tcandidates\tsigRejects")
		for _, tau := range spec.taus {
			fmt.Fprintf(w, "%d", tau)
			var results int
			var st metrics.Stats
			for _, vk := range []core.VerifyKind{core.VerifyNaive, core.VerifyLengthAware, core.VerifyExtension, core.VerifyExtensionShared, core.VerifyMyers} {
				var pairs []core.Pair
				st.Reset()
				d := timeIt(func() {
					pairs, _ = core.SelfJoin(strs, core.Options{Tau: tau, Verification: vk, Stats: &st})
				})
				results = len(pairs)
				fmt.Fprintf(w, "\t%s", ms(d))
			}
			fmt.Fprintf(w, "\t%d\t%d\t%d\n", results, st.Candidates, st.SigRejects)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fig15 reproduces Figure 15: Pass-Join vs ED-Join vs Trie-Join, total
// elapsed time (indexing + join).
func (c *runConfig) fig15() error {
	header("Figure 15: Comparison with ED-Join and Trie-Join, total time (ms)")
	for _, spec := range c.specs {
		strs := c.corpus(spec)
		fmt.Printf("\n-- %s (EdJoin q=%d) --\n", spec.name, spec.edq)
		w := newTable()
		fmt.Fprintln(w, "tau\tEdJoin\tTrieJoin\tPassJoin\tresults")
		for _, tau := range spec.taus {
			var nEd, nTrie, nPass int
			dEd := timeIt(func() {
				ps, err := edjoin.Join(strs, tau, spec.edq, nil)
				if err == nil {
					nEd = len(ps)
				}
			})
			dTrie := timeIt(func() {
				ps, err := triejoin.Join(strs, tau, nil)
				if err == nil {
					nTrie = len(ps)
				}
			})
			dPass := timeIt(func() {
				ps, _ := core.SelfJoin(strs, core.Options{Tau: tau})
				nPass = len(ps)
			})
			if nEd != nPass || nTrie != nPass {
				return fmt.Errorf("fig15 %s tau=%d: result mismatch ed=%d trie=%d pass=%d", spec.name, tau, nEd, nTrie, nPass)
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%d\n", tau, ms(dEd), ms(dTrie), ms(dPass), nPass)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fig16 reproduces Figure 16: scalability with dataset size.
func (c *runConfig) fig16() error {
	header("Figure 16: Scalability, Pass-Join total time (ms)")
	for _, spec := range c.specs {
		full := c.corpus(spec)
		taus := spec.taus
		if len(taus) > 4 {
			taus = taus[len(taus)-4:]
		}
		fmt.Printf("\n-- %s --\n", spec.name)
		w := newTable()
		fmt.Fprint(w, "size")
		for _, tau := range taus {
			fmt.Fprintf(w, "\ttau=%d", tau)
		}
		fmt.Fprintln(w)
		for step := 1; step <= 6; step++ {
			n := len(full) * step / 6
			strs := full[:n]
			fmt.Fprintf(w, "%d", n)
			for _, tau := range taus {
				d := timeIt(func() {
					core.SelfJoin(strs, core.Options{Tau: tau})
				})
				fmt.Fprintf(w, "\t%s", ms(d))
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// table3 reproduces Table 3: index sizes.
func (c *runConfig) table3() error {
	header("Table 3: Index sizes (MB); EdJoin q=4, PassJoin tau=4")
	w := newTable()
	fmt.Fprintln(w, "Dataset\tData Size\tEdJoin(q=4)\tTrieJoin\tPassJoin(tau=4)")
	for _, spec := range c.specs {
		strs := c.corpus(spec)
		dataBytes := dataset.Summarize(strs).TotalBytes
		edBytes, _ := edjoin.IndexFootprint(strs, 4, 4)
		trBytes, _ := triejoin.IndexFootprint(strs)
		pjBytes, _ := core.IndexFootprint(strs, 4)
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", spec.name, mb(dataBytes), mb(edBytes), mb(trBytes), mb(pjBytes))
	}
	return w.Flush()
}

// ablation runs extension experiments beyond the paper: the full selection
// × verification matrix, the secondary baselines (All-Pairs-Ed, Part-Enum)
// and parallel speedup.
func (c *runConfig) ablation() error {
	spec := c.specs[0] // author regime
	strs := c.corpus(spec)
	tau := 2

	header(fmt.Sprintf("Ablation A: selection x verification, %s tau=%d, join time (ms)", spec.name, tau))
	w := newTable()
	fmt.Fprintln(w, "selection\\verification\t2tau+1\ttau+1\tExtension\tSharePrefix")
	for _, sel := range []selection.Method{selection.Length, selection.Shift, selection.Position, selection.MultiMatch} {
		fmt.Fprintf(w, "%v", sel)
		for _, vk := range []core.VerifyKind{core.VerifyNaive, core.VerifyLengthAware, core.VerifyExtension, core.VerifyExtensionShared} {
			d := timeIt(func() {
				core.SelfJoin(strs, core.Options{Tau: tau, Selection: sel, Verification: vk})
			})
			fmt.Fprintf(w, "\t%s", ms(d))
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	header(fmt.Sprintf("Ablation B: secondary baselines, %s, total time (ms)", spec.name))
	w = newTable()
	fmt.Fprintln(w, "tau\tAllPairsEd\tEdJoin\tPartEnum\tNGPP\tPassJoin")
	ablTaus := spec.taus
	if len(ablTaus) > 3 {
		ablTaus = ablTaus[:3]
	}
	for _, tau := range ablTaus {
		dAll := timeIt(func() { mustPairs(edjoin.JoinConfig(strs, tau, edjoin.Config{Q: spec.edq}, nil)) })
		dEd := timeIt(func() { mustPairs(edjoin.Join(strs, tau, spec.edq, nil)) })
		dPe := timeIt(func() { mustPairs(partEnumJoin(strs, tau)) })
		dNg := timeIt(func() { mustPairs(ngpp.Join(strs, tau, nil)) })
		dPj := timeIt(func() { core.SelfJoin(strs, core.Options{Tau: tau}) })
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\n", tau, ms(dAll), ms(dEd), ms(dPe), ms(dNg), ms(dPj))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Parallel speedup needs the cores the command was given.
	if err := onProcs(procs, func() error {
		header("Ablation C: parallel probe speedup (author, tau=3)")
		w := newTable()
		fmt.Fprintln(w, "workers\ttime (ms)\tspeedup")
		var base time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			d := timeIt(func() {
				core.SelfJoin(strs, core.Options{Tau: 3, Parallel: workers})
			})
			if workers == 1 {
				base = d
			}
			fmt.Fprintf(w, "%d\t%s\t%.2fx\n", workers, ms(d), float64(base)/float64(d))
		}
		return w.Flush()
	}); err != nil {
		return err
	}

	header("Ablation D: candidate funnel (author, tau=3, multi-match + share-prefix)")
	st := &metrics.Stats{}
	core.SelfJoin(strs, core.Options{Tau: 3, Stats: st})
	w = newTable()
	fmt.Fprintf(w, "selected substrings\t%d\n", st.SelectedSubstrings)
	fmt.Fprintf(w, "index lookups\t%d\n", st.Lookups)
	fmt.Fprintf(w, "lookup hits\t%d\n", st.LookupHits)
	fmt.Fprintf(w, "candidate occurrences\t%d\n", st.Candidates)
	fmt.Fprintf(w, "signature rejects\t%d\n", st.SigRejects)
	fmt.Fprintf(w, "verifications\t%d\n", st.Verifications)
	fmt.Fprintf(w, "early terminations\t%d\n", st.EarlyTerms)
	fmt.Fprintf(w, "shared DP rows\t%d\n", st.SharedRows)
	fmt.Fprintf(w, "results\t%d\n", st.Results)
	return w.Flush()
}

func mustPairs(ps []core.Pair, err error) {
	if err != nil {
		panic(err)
	}
}
