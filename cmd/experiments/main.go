// Command experiments regenerates every table and figure of the Pass-Join
// paper's evaluation (§6) on the synthetic corpora:
//
//	table2    dataset statistics (Table 2)
//	fig11     string length distributions (Figure 11)
//	fig12     numbers of selected substrings per selection method (Figure 12)
//	fig13     substring generation time (Figure 13)
//	fig14     verification method comparison (Figure 14)
//	fig15     Pass-Join vs ED-Join vs Trie-Join (Figure 15)
//	fig16     scalability in dataset size (Figure 16)
//	table3    index sizes (Table 3)
//	ablation  extension experiments beyond the paper
//	hotpath   race the verification kernels on a batch-shaped workload
//	latency   replay a query corpus against a live passjoind and report
//	          p50/p90/p99 from its /metrics latency histogram
//	          (experiments latency -addr URL -corpus FILE [-n N] [-c C])
//	all       every table and figure above, in order (hotpath and
//	          latency excluded)
//
// Every experiment runs at GOMAXPROCS=1, as the paper's single-threaded
// methods did, except ablation C's parallel rows and latency, which keep the
// setting the command started with; each header prints it.
//
// Corpus sizes scale with -scale small|medium|full; absolute numbers are
// machine-dependent; the paper's SHAPES (orderings, ratios, crossovers) are
// what to compare. Figs. 12 and 14's orderings are pinned by
// TestSelectionScanCountsOrdered in internal/core.
//
// Fig. 14's 2τ+1 series runs the band's scalar cells, and its other banded
// series run the word kernel (one 64-bit step per row, for bands of at most
// 64 cells). Its wall-clock ordering therefore mixes two kernels; the DP
// cells it counts do not, since both kernels count the same cells.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	scale := flag.String("scale", "small", "corpus scale: small, medium or full")
	seed := flag.Int64("seed", 1, "corpus generator seed")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	// latency takes its own flags (daemon address, replay corpus), so it
	// consumes the rest of the command line instead of joining the
	// figure-command loop.
	if flag.Arg(0) == "latency" {
		if err := runLatency(flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := newRunConfig(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	for _, cmd := range flag.Args() {
		if err := run(cfg, cmd); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// procs is the GOMAXPROCS the command started with: what ablation C's
// parallel rows and latency's clients run at.
var procs = runtime.GOMAXPROCS(0)

// onProcs runs f at GOMAXPROCS n and then restores the setting.
func onProcs(n int, f func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// run runs one experiment at GOMAXPROCS=1: the paper's figures time
// single-threaded methods, and a default Pass-Join join would otherwise look
// up on one core while it verifies on another. Ablation C's parallel rows are
// the exception, and every header says which setting it ran at.
func run(cfg *runConfig, cmd string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	switch cmd {
	case "table2":
		return cfg.table2()
	case "fig11":
		return cfg.fig11()
	case "fig12":
		return cfg.fig12()
	case "fig13":
		return cfg.fig13()
	case "fig14":
		return cfg.fig14()
	case "fig15":
		return cfg.fig15()
	case "fig16":
		return cfg.fig16()
	case "table3":
		return cfg.table3()
	case "ablation":
		return cfg.ablation()
	case "hotpath":
		return cfg.hotpath()
	case "all":
		for _, c := range []string{"table2", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table3", "ablation"} {
			if err := run(cfg, c); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", cmd)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: experiments [-scale small|medium|full] [-seed N] <experiment>...

experiments: table2 fig11 fig12 fig13 fig14 fig15 fig16 table3 ablation hotpath latency all
%s`, strings.TrimLeft(`
Each experiment prints the rows/series of the corresponding table or
figure of the Pass-Join paper (PVLDB 5(3), 2011).
`, "\n"))
}
