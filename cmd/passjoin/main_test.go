package main

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"passjoin"
	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
)

var corpus = []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "vldbj"}

// bruteSorted returns the brute-force pairs as passjoin.Pairs in (R, S)
// order, the order the CLI prints.
func bruteSorted(ps []bruteforce.Pair) []passjoin.Pair {
	out := make([]passjoin.Pair, len(ps))
	for i, p := range ps {
		out[i] = passjoin.Pair{R: int(p.R), S: int(p.S)}
	}
	slices.SortFunc(out, func(a, b passjoin.Pair) int { return cmp.Or(a.R-b.R, a.S-b.S) })
	return out
}

// The CLI prints exactly the brute-force pair list, in (R, S) order.
func TestRunEngineMatchesPassjoinOutput(t *testing.T) {
	strs := dataset.Author(200, 3)
	got, err := runJoin(strs, nil, 2, 1, &passjoin.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSorted(bruteforce.SelfJoin(strs, 2)); !slices.Equal(got, want) {
		t.Fatalf("pairs %v, CLI %v", want, got)
	}
}

// A two-set join prints the brute-force cross pairs, numbered by each
// set's own lines.
func TestRunEngineTwoSets(t *testing.T) {
	r := []string{"vldb", "sigmod", "icde"}
	s := []string{"pvldb", "sigmmod", "icdm", "vldbj"}
	got, err := runJoin(r, s, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no pairs to compare")
	}
	if want := bruteSorted(bruteforce.Join(r, s, 2)); !slices.Equal(got, want) {
		t.Fatalf("pairs %v, CLI %v", want, got)
	}
}

func TestRunJoinTwoSets(t *testing.T) {
	r := []string{"vldb"}
	s := []string{"pvldb", "icde"}
	pairs, err := runJoin(r, s, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].R != 0 || pairs[0].S != 0 {
		t.Fatalf("pairs: %v", pairs)
	}
}

// A negative -tau or -parallel is rejected with one "passjoin: " prefix;
// an error without the prefix gets it.
func TestRunJoinBadFlags(t *testing.T) {
	for _, c := range []struct {
		tau, parallel int
		want          string
	}{
		{-1, 1, "passjoin: threshold must be non-negative, got -1"},
		{2, -1, "passjoin: negative parallelism -1"},
	} {
		_, err := runJoin(corpus, nil, c.tau, c.parallel, nil)
		if err == nil {
			t.Errorf("-tau %d -parallel %d accepted", c.tau, c.parallel)
			continue
		}
		if got := errorLine(err); got != c.want {
			t.Errorf("-tau %d -parallel %d: %q, want %q", c.tau, c.parallel, got, c.want)
		}
	}
	if got := errorLine(errors.New("open x: no such file")); got != "passjoin: open x: no such file" {
		t.Errorf("unprefixed error rendered %q", got)
	}
}

func TestRunJoinParallel(t *testing.T) {
	seq, err := runJoin(corpus, nil, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJoin(corpus, nil, 2, 4, nil)
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
	seq, err := runJoin(r, s, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runJoin(r, s, 2, 4, nil)
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
