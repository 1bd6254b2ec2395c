package main

import (
	"errors"
	"slices"
	"testing"

	"passjoin"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/engine"
)

var corpus = []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "vldbj"}

// corePairs converts the CLI's pairs to the oracles' representation.
func corePairs(ps []passjoin.Pair) []core.Pair {
	out := make([]core.Pair, len(ps))
	for i, p := range ps {
		out[i] = core.Pair{R: int32(p.R), S: int32(p.S)}
	}
	return out
}

// The CLI prints exactly the pair list of every Fig. 15 oracle, in the
// same order.
func TestRunEngineMatchesPassjoinOutput(t *testing.T) {
	strs := dataset.Author(200, 3)
	pairs, err := runJoin(strs, nil, 2, 1, &passjoin.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	got := corePairs(pairs)
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
	pairs, err := runJoin(r, s, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := corePairs(pairs)
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
