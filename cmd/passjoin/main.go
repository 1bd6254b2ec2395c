// Command passjoin runs a string similarity join from the command line.
//
//	passjoin -tau 2 strings.txt                 self join
//	passjoin -tau 2 r.txt s.txt                 R x S join
//	passjoin -tau 2 -parallel 8 r.txt s.txt     parallel probe workers (both join kinds)
//	passjoin -tau 3 -query-tau 1 strings.txt    join at 1 over an index partitioned for 3
//
// Input files contain one string per line. Output is one result pair per
// line: the two (0-based) line numbers and the two strings, tab-separated.
//
// The join is Pass-Join; -selection and -verify pick the paper's variants.
// The paper's competitors are reached through cmd/experiments (fig15,
// table3, ablation), not from here.
//
// -query-tau answers the join at a threshold below -tau using the index
// partitioned for -tau (exact via the pigeonhole bound) — the CLI
// counterpart of passjoind's per-request ?tau= parameter, useful for
// sweeping several thresholds against one partitioning without
// re-indexing per run. The join runs in search mode: the first set is
// segment-indexed once and every probe string queries it at -query-tau,
// fanned over -parallel workers. (-stats counts the probe work only with
// -parallel 1 — parallel workers query private index snapshots that
// carry no counter sink.)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
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
	queryTau := flag.Int("query-tau", -1,
		"answer the join at this threshold (<= tau) from the index partitioned for -tau; -1 = tau")
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
	pairs, err := runJoin(strs, sset, *tau, *queryTau, *sel, *ver, *parallel, st)
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

func runJoin(strs, sset []string, tau, queryTau int, sel, ver string, parallel int, st *metrics.Stats) ([]core.Pair, error) {
	m, err := selection.ParseMethod(sel)
	if err != nil {
		return nil, err
	}
	vk, err := core.ParseVerifyKind(ver)
	if err != nil {
		return nil, err
	}
	if queryTau != -1 {
		if queryTau < 0 || queryTau > tau {
			return nil, fmt.Errorf("-query-tau %d outside [0, %d] (an index partitioned for tau=%d answers only thresholds up to it)", queryTau, tau, tau)
		}
		return searchJoin(strs, sset, tau, queryTau, m, vk, parallel, st)
	}
	opt := core.Options{Tau: tau, Selection: m, Verification: vk, Stats: st, Parallel: parallel}
	if sset != nil {
		return core.Join(strs, sset, opt)
	}
	return core.SelfJoin(strs, opt)
}

// searchJoin runs the join in search mode for a per-query threshold below
// the partition threshold: the first set is bulk-built once at tau into its
// frozen form, then every probe string queries it at queryTau —
// exact by the pigeonhole bound, since queryTau edits destroy at most
// queryTau of the tau+1 segments. With -parallel > 1 the probes fan out
// over read-only index snapshots.
func searchJoin(strs, sset []string, tau, queryTau int, sel selection.Method, vk core.VerifyKind, parallel int, st *metrics.Stats) ([]core.Pair, error) {
	base, err := core.BuildSealedMatcher(tau, sel, vk, st, strs, 1)
	if err != nil {
		return nil, err
	}

	self := sset == nil
	probe := strs
	if !self {
		probe = sset
	}
	opt := core.QueryOpts{Tau: queryTau}
	var pairs []core.Pair
	if parallel <= 1 {
		// Sequential probes run on the base matcher itself so -stats keeps
		// counting selection/verification work.
		for sid, s := range probe {
			for _, h := range base.QueryOpt(s, opt) {
				if self && int(h.ID) >= sid {
					continue // each unordered pair once, never (i, i)
				}
				pairs = append(pairs, core.Pair{R: h.ID, S: int32(sid)})
			}
		}
	} else {
		if parallel > len(probe) && len(probe) > 0 {
			parallel = len(probe)
		}
		parts := make([][]core.Pair, parallel)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < parallel; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				snap := base.Snapshot()
				for {
					sid := int(next.Add(1)) - 1
					if sid >= len(probe) {
						return
					}
					for _, h := range snap.QueryOpt(probe[sid], opt) {
						if self && int(h.ID) >= sid {
							continue
						}
						parts[w] = append(parts[w], core.Pair{R: h.ID, S: int32(sid)})
					}
				}
			}(w)
		}
		wg.Wait()
		for _, p := range parts {
			pairs = append(pairs, p...)
		}
	}
	core.SortPairs(pairs)
	return pairs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "passjoin:", err)
	os.Exit(1)
}
