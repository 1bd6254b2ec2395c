// Command passjoin runs a string similarity join from the command line.
//
//	passjoin -tau 2 strings.txt                 self join
//	passjoin -tau 2 r.txt s.txt                 R x S join
//	passjoin -tau 2 -parallel 8 r.txt s.txt     parallel probe workers (both join kinds)
//
// Input files contain one string per line. Output is one result pair per
// line: the two (0-based) line numbers and the two strings, tab-separated.
//
// The join is Pass-Join; -selection and -verify pick the paper's variants.
// The paper's competitors are reached through cmd/experiments (fig15,
// table3, ablation), not from here.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
)

// verifyUsage is the -verify help; passjoind's flag lists the same names.
const verifyUsage = "verification: shareprefix, extension, lengthaware, naive, bitparallel (alias myers)"

func main() {
	tau := flag.Int("tau", 2, "edit-distance threshold")
	sel := flag.String("selection", "multimatch", "substring selection: multimatch, position, shift, length")
	ver := flag.String("verify", "shareprefix", verifyUsage)
	parallel := flag.Int("parallel", 1, "parallel probe workers (self and R×S joins)")
	quiet := flag.Bool("quiet", false, "suppress result pairs, print summary only")
	showStats := flag.Bool("stats", false, "print instrumentation counters to stderr")
	flag.Parse()

	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: passjoin [flags] strings.txt [second-set.txt]")
		flag.Usage()
		os.Exit(2)
	}

	strs, err := dataset.LoadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var sset []string
	if flag.NArg() == 2 {
		if sset, err = dataset.LoadFile(flag.Arg(1)); err != nil {
			fatal(err)
		}
	}

	st := &metrics.Stats{}
	start := time.Now()
	pairs, err := runJoin(strs, sset, *tau, *sel, *ver, *parallel, st)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if !*quiet {
		w := bufio.NewWriter(os.Stdout)
		other := strs
		if sset != nil {
			other = sset
		}
		for _, p := range pairs {
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\n", p.R, p.S, strs[p.R], other[p.S])
		}
		w.Flush()
	}
	fmt.Fprintf(os.Stderr, "passjoin: %d pairs in %v (%d strings, tau=%d)\n",
		len(pairs), elapsed.Round(time.Millisecond), len(strs)+len(sset), *tau)
	if *showStats {
		fmt.Fprintln(os.Stderr, "stats:", st)
	}
}

func runJoin(strs, sset []string, tau int, sel, ver string, parallel int, st *metrics.Stats) ([]core.Pair, error) {
	m, err := selection.ParseMethod(sel)
	if err != nil {
		return nil, err
	}
	vk, err := core.ParseVerifyKind(ver)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Tau: tau, Selection: m, Verification: vk, Stats: st, Parallel: parallel}
	if sset != nil {
		return core.Join(strs, sset, opt)
	}
	return core.SelfJoin(strs, opt)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "passjoin:", err)
	os.Exit(1)
}
