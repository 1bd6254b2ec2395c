package passjoin_test

import (
	"bytes"
	"fmt"

	"passjoin"
)

// ExampleWithShards builds one index on two workers and shares it between
// goroutines: a Searcher is safe for concurrent use, and a query probes the
// one index on its caller's goroutine whatever the worker count was.
func ExampleWithShards() {
	corpus := []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "vldbj"}
	s, err := passjoin.NewSearcher(corpus, 1, passjoin.WithShards(2))
	if err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		s.Search("sigmod")
		close(done)
	}()
	for _, m := range s.Search("vldb") {
		fmt.Printf("%s (dist %d)\n", s.At(m.ID), m.Dist)
	}
	<-done
	fmt.Println("workers:", s.NumShards())
	// Output:
	// vldb (dist 0)
	// pvldb (dist 1)
	// vldbj (dist 1)
	// workers: 2
}

// ExampleQueryTopK shows top-k search: the k nearest corpus strings among
// those within the indexed threshold.
func ExampleQueryTopK() {
	corpus := []string{"icde", "vldb", "pvldb", "vldbj", "icdt"}
	s, err := passjoin.NewSearcher(corpus, 2, passjoin.WithShards(2))
	if err != nil {
		panic(err)
	}
	for _, m := range s.Search("vldb", passjoin.QueryTopK(2)) {
		fmt.Printf("%s (dist %d)\n", s.At(m.ID), m.Dist)
	}
	// Output:
	// vldb (dist 0)
	// pvldb (dist 1)
}

// ExampleSearcher_Search_topK shows the same top-k search on an index built
// with the default worker count.
func ExampleSearcher_Search_topK() {
	corpus := []string{"icde", "vldb", "pvldb", "vldbj", "icdt"}
	s, err := passjoin.NewSearcher(corpus, 2)
	if err != nil {
		panic(err)
	}
	for _, m := range s.Search("icde", passjoin.QueryTopK(2)) {
		fmt.Printf("%s (dist %d)\n", s.At(m.ID), m.Dist)
	}
	// Output:
	// icde (dist 0)
	// icdt (dist 1)
}

// ExampleReadSearcherFrom snapshots an index and reloads it on a different
// number of build workers — the snapshot stores only the corpus, so the
// worker count is a load-time choice.
func ExampleReadSearcherFrom() {
	corpus := []string{"vldb", "pvldb", "sigmod"}
	s, err := passjoin.NewSearcher(corpus, 1, passjoin.WithShards(3))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(err)
	}
	re, err := passjoin.ReadSearcherFrom(&buf, passjoin.WithShards(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(re.Len(), re.Tau(), re.NumShards())
	// Output:
	// 3 1 1
}
