// Command passjoin runs a string similarity join from the command line.
//
//	passjoin -tau 2 strings.txt                 self join
//	passjoin -tau 2 r.txt s.txt                 R x S join
//	passjoin -tau 2 -parallel 8 r.txt s.txt     join workers (both join kinds)
//
// Input files contain one string per line. Output is one result pair per
// line: the two (0-based) line numbers and the two strings, tab-separated.
//
// The join is Pass-Join with the paper's full method: multi-match-aware
// selection and share-prefix verification. The paper's other selection and
// verification methods (Figs. 12 and 14) and its competitors (Fig. 15,
// Table 3, the ablations) are measured by internal/repro's TestExperiments,
// not from here.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"passjoin"
	"passjoin/internal/dataset"
)

func main() {
	tau := flag.Int("tau", 2, "edit-distance threshold")
	parallel := flag.Int("parallel", 1, "join workers: at least 2 and at most GOMAXPROCS (self and R×S joins)")
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

	var st *passjoin.Stats
	if *showStats {
		st = &passjoin.Stats{}
	}
	start := time.Now()
	pairs, err := runJoin(strs, sset, *tau, *parallel, st)
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

func runJoin(strs, sset []string, tau, parallel int, st *passjoin.Stats) ([]passjoin.Pair, error) {
	opts := []passjoin.Option{passjoin.WithParallelism(parallel)}
	if st != nil {
		opts = append(opts, passjoin.WithStats(st))
	}
	if sset != nil {
		return passjoin.Join(strs, sset, tau, opts...)
	}
	return passjoin.SelfJoin(strs, tau, opts...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine prefixes err with the command name once: the library's errors
// already carry it.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "passjoin: ") {
		return msg
	}
	return "passjoin: " + msg
}
