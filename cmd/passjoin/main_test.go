package main

import (
	"slices"
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/engine"
	"passjoin/internal/metrics"
)

var corpus = []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "vldbj"}

// verifyNames is every -verify name; cmd/passjoind's test holds the same
// list, so both binaries accept one vocabulary.
var verifyNames = []string{"shareprefix", "extension", "lengthaware", "naive", "bitparallel", "myers"}

// Every -verify name is accepted and named in the flag's help.
func TestRunJoinVerifyNames(t *testing.T) {
	want := len(bruteforce.SelfJoin(corpus, 2))
	for _, ver := range verifyNames {
		pairs, err := runJoin(corpus, nil, 2, -1, "multimatch", ver, 1, nil)
		if err != nil || len(pairs) != want {
			t.Errorf("-verify %s: %d pairs, %v; want %d", ver, len(pairs), err, want)
		}
		if !strings.Contains(verifyUsage, ver) {
			t.Errorf("-verify help %q does not name %s", verifyUsage, ver)
		}
	}
}

// Every -selection × -verify variant is exact.
func TestRunJoinAllAlgorithms(t *testing.T) {
	want := len(bruteforce.SelfJoin(corpus, 2))
	for _, sel := range []string{"multimatch", "position", "shift", "length"} {
		for _, ver := range verifyNames {
			st := &metrics.Stats{}
			pairs, err := runJoin(corpus, nil, 2, -1, sel, ver, 1, st)
			if err != nil {
				t.Fatalf("%s/%s: %v", sel, ver, err)
			}
			if len(pairs) != want {
				t.Errorf("%s/%s: %d pairs, want %d", sel, ver, len(pairs), want)
			}
		}
	}
}

// The CLI prints exactly the pair list of every Fig. 15 oracle, in the
// same order.
func TestRunEngineMatchesPassjoinOutput(t *testing.T) {
	strs := dataset.Author(200, 3)
	got, err := runJoin(strs, nil, 2, -1, "multimatch", "shareprefix", 1, &metrics.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engine.All() {
		want, err := e.SelfJoin(strs, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: pairs %v, CLI %v", e.Name(), want, got)
		}
	}
}

// A two-set join prints every oracle's cross pairs of the concatenated
// sets, shifted back to the second set's line numbers.
func TestRunEngineTwoSets(t *testing.T) {
	r := []string{"vldb", "sigmod", "icde"}
	s := []string{"pvldb", "sigmmod", "icdm", "vldbj"}
	got, err := runJoin(r, s, 2, -1, "multimatch", "shareprefix", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no pairs to compare")
	}
	n := int32(len(r))
	for _, e := range engine.All() {
		union, err := e.SelfJoin(append(slices.Clone(r), s...), 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		var want []core.Pair
		for _, p := range union {
			if p.R < n && p.S >= n {
				want = append(want, core.Pair{R: p.R, S: p.S - n})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: pairs %v, CLI %v", e.Name(), want, got)
		}
	}
}

func TestRunJoinTwoSets(t *testing.T) {
	r := []string{"vldb"}
	s := []string{"pvldb", "icde"}
	pairs, err := runJoin(r, s, 1, -1, "multimatch", "shareprefix", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].R != 0 || pairs[0].S != 0 {
		t.Fatalf("pairs: %v", pairs)
	}
}

func TestRunJoinBadFlags(t *testing.T) {
	if _, err := runJoin(corpus, nil, 1, -1, "nope", "shareprefix", 1, nil); err == nil {
		t.Error("unknown selection accepted")
	}
	if _, err := runJoin(corpus, nil, 1, -1, "multimatch", "nope", 1, nil); err == nil {
		t.Error("unknown verification accepted")
	}
}

func TestRunJoinQueryTau(t *testing.T) {
	for _, qt := range []int{0, 1, 2} {
		want, err := runJoin(corpus, nil, qt, -1, "multimatch", "shareprefix", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := runJoin(corpus, nil, 3, qt, "multimatch", "shareprefix", workers, nil)
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
	want, err := runJoin(r, s, 1, -1, "multimatch", "shareprefix", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runJoin(r, s, 3, 1, "multimatch", "shareprefix", 1, nil)
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
	if _, err := runJoin(corpus, nil, 2, 3, "multimatch", "shareprefix", 1, nil); err == nil {
		t.Error("query-tau above tau accepted")
	}
	if _, err := runJoin(corpus, nil, 2, -2, "multimatch", "shareprefix", 1, nil); err == nil {
		t.Error("negative query-tau accepted")
	}
}

func TestRunJoinParallel(t *testing.T) {
	seq, err := runJoin(corpus, nil, 2, -1, "multimatch", "shareprefix", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJoin(corpus, nil, 2, -1, "multimatch", "shareprefix", 4, nil)
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
	seq, err := runJoin(r, s, 2, -1, "multimatch", "shareprefix", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJoin(r, s, 2, -1, "multimatch", "shareprefix", 4, nil)
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
