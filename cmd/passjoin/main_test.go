package main

import (
	"slices"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
	"passjoin/internal/engine"
	"passjoin/internal/metrics"
)

var corpus = []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "vldbj"}

// algos is every -algo name: the engine registry's (asserted below, so a
// new registration cannot be missed here) plus triesearch.
var algos = []string{"passjoin", "edjoin", "allpairs", "qgram", "triejoin", "triesearch", "ngpp", "partenum"}

func TestRunJoinAllAlgorithms(t *testing.T) {
	want := len(bruteforce.SelfJoin(corpus, 2))
	for _, algo := range algos {
		st := &metrics.Stats{}
		pairs, err := runJoin(corpus, nil, 2, -1, algo, "multimatch", "shareprefix", 2, 1, st)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(pairs) != want {
			t.Errorf("%s: %d pairs, want %d", algo, len(pairs), want)
		}
	}
}

// Golden test for -algo: every engine of the registry is reachable by its
// name and prints exactly the pair list the default pass-join path does,
// in the same order.
func TestRunEngineMatchesPassjoinOutput(t *testing.T) {
	strs := dataset.Author(200, 3)
	want, err := runJoin(strs, nil, 2, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engine.All() {
		if !slices.Contains(algos, e.Name()) {
			t.Errorf("engine %s missing from the test's -algo list", e.Name())
		}
	}
	for _, algo := range algos {
		pairs, err := runJoin(strs, nil, 2, -1, algo, "multimatch", "shareprefix", 2, 1, &metrics.Stats{})
		if err != nil {
			t.Fatalf("-algo %s: %v", algo, err)
		}
		if !slices.Equal(pairs, want) {
			t.Fatalf("-algo %s: pairs %v, want %v", algo, pairs, want)
		}
	}
}

// The baselines answer a two-set join through the disjoint-union
// reduction, with the pair list of pass-join's native R×S path.
func TestRunEngineTwoSets(t *testing.T) {
	r := []string{"vldb", "sigmod", "icde"}
	s := []string{"pvldb", "sigmmod", "icdm", "vldbj"}
	want, err := runJoin(r, s, 2, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no pairs to compare")
	}
	for _, algo := range algos {
		pairs, err := runJoin(r, s, 2, -1, algo, "multimatch", "shareprefix", 2, 1, nil)
		if err != nil {
			t.Fatalf("-algo %s: %v", algo, err)
		}
		if !slices.Equal(pairs, want) {
			t.Fatalf("-algo %s: pairs %v, want %v", algo, pairs, want)
		}
	}
}

func TestRunJoinTwoSets(t *testing.T) {
	r := []string{"vldb"}
	s := []string{"pvldb", "icde"}
	pairs, err := runJoin(r, s, 1, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].R != 0 || pairs[0].S != 0 {
		t.Fatalf("pairs: %v", pairs)
	}
}

func TestRunJoinBadFlags(t *testing.T) {
	if _, err := runJoin(corpus, nil, 1, -1, "nope", "multimatch", "shareprefix", 2, 1, nil); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, err := runJoin(corpus, nil, 1, -1, "passjoin", "nope", "shareprefix", 2, 1, nil); err == nil {
		t.Error("unknown selection accepted")
	}
	if _, err := runJoin(corpus, nil, 1, -1, "passjoin", "multimatch", "nope", 2, 1, nil); err == nil {
		t.Error("unknown verification accepted")
	}
}

func TestRunJoinQueryTau(t *testing.T) {
	for _, qt := range []int{0, 1, 2} {
		want, err := runJoin(corpus, nil, qt, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := runJoin(corpus, nil, 3, qt, "passjoin", "multimatch", "shareprefix", 2, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("query-tau %d (workers=%d): %d pairs, want %d", qt, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query-tau %d (workers=%d): pair %d = %v, want %v", qt, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRunJoinQueryTauTwoSets(t *testing.T) {
	r := []string{"vldb", "sigmod", "icde"}
	s := []string{"pvldb", "sigmmod", "icdm", "vldbj"}
	want, err := runJoin(r, s, 1, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runJoin(r, s, 3, 1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRunJoinQueryTauRejected(t *testing.T) {
	if _, err := runJoin(corpus, nil, 2, 3, "passjoin", "multimatch", "shareprefix", 2, 1, nil); err == nil {
		t.Error("query-tau above tau accepted")
	}
	if _, err := runJoin(corpus, nil, 2, -2, "passjoin", "multimatch", "shareprefix", 2, 1, nil); err == nil {
		t.Error("negative query-tau accepted")
	}
	if _, err := runJoin(corpus, nil, 2, 1, "edjoin", "", "", 2, 1, nil); err == nil {
		t.Error("query-tau accepted for a baseline algorithm")
	}
}

func TestRunJoinParallel(t *testing.T) {
	seq, err := runJoin(corpus, nil, 2, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJoin(corpus, nil, 2, -1, "passjoin", "multimatch", "shareprefix", 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Errorf("parallel %d pairs vs %d", len(par), len(seq))
	}
}

func TestRunJoinParallelTwoSets(t *testing.T) {
	r := []string{"vldb", "sigmod", "icde"}
	s := []string{"pvldb", "sigmmod", "icdm", "vldbj"}
	seq, err := runJoin(r, s, 2, -1, "passjoin", "multimatch", "shareprefix", 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJoin(r, s, 2, -1, "passjoin", "multimatch", "shareprefix", 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("parallel %d pairs vs %d sequential", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}
