package passjoin_test

import (
	"fmt"

	"passjoin"
)

// ExampleQueryTau shows "one index, many thresholds": a single searcher
// partitioned for tau=3 answers any smaller threshold exactly, so serving
// thresholds 0..3 needs one index, not four.
func ExampleQueryTau() {
	corpus := []string{"vldb", "pvldb", "vldbj", "sigmod", "sigmmod", "icde"}
	s, _ := passjoin.NewSearcher(corpus, 3) // partitioned once, for the largest threshold
	for t := 0; t <= 2; t++ {
		fmt.Printf("tau=%d:", t)
		for _, m := range s.Search("vldb", passjoin.QueryTau(t)) {
			fmt.Printf(" %s(%d)", corpus[m.ID], m.Dist)
		}
		fmt.Println()
	}
	// Output:
	// tau=0: vldb(0)
	// tau=1: vldb(0) pvldb(1) vldbj(1)
	// tau=2: vldb(0) pvldb(1) vldbj(1)
}

// ExampleSearcher_SearchSeq shows the streaming form with an early exit:
// the probe stops as soon as the consumer has what it needs, here a
// single exact-match existence check.
func ExampleSearcher_SearchSeq() {
	corpus := []string{"vldb", "pvldb", "vldbj", "sigmod", "icde"}
	s, _ := passjoin.NewSearcher(corpus, 2)
	for m := range s.SearchSeq("vldb", passjoin.QueryTau(0), passjoin.QueryLimit(1)) {
		fmt.Printf("found %q (dist %d)\n", corpus[m.ID], m.Dist)
	}
	// Output:
	// found "vldb" (dist 0)
}

// ExampleIndex shows the one interface both searchers implement: code
// written against passjoin.Index serves a static or a dynamic index
// interchangeably, per-query options included.
func ExampleIndex() {
	corpus := []string{"vldb", "pvldb", "vldbj", "sigmod", "sigmmod"}
	nearest := func(idx passjoin.Index, q string) string {
		for _, m := range idx.Search(q, passjoin.QueryTopK(1)) {
			doc, _ := idx.Get(m.ID)
			return fmt.Sprintf("%s -> %s (dist %d)", q, doc, m.Dist)
		}
		return q + " -> no match"
	}
	st, _ := passjoin.NewSearcher(corpus, 2)
	dy, _ := passjoin.NewDynamicSearcher(corpus, 2)
	defer dy.Close()
	for _, idx := range []passjoin.Index{st, dy} {
		fmt.Println(nearest(idx, "sigmmod"))
	}
	// Output:
	// sigmmod -> sigmmod (dist 0)
	// sigmmod -> sigmmod (dist 0)
}
