package main

import (
	"slices"
	"testing"

	"passjoin"
	"passjoin/internal/dataset"
)

// inputHashes fingerprints everything the generators hand the program for
// one seed: both corpora, the query set, the insert pool and an op stream.
func inputHashes(seed int64) []uint64 {
	corpus := shuffled(dataset.Author(2000, corpusSeed), seed)
	ops := make([]string, 0, 4)
	for g := 0; g < 2; g++ {
		for r := -1; r < 1; r++ {
			ops = append(ops, string(opSchedule(seed, g, r, 200)))
		}
	}
	return []uint64{
		hashStrings(corpus),
		hashStrings(shuffled(dataset.AuthorTitle(300, corpusSeed), seed)),
		hashStrings(makeQueries(corpus, 800, seed)),
		hashStrings(shuffled(dataset.Author(4000, corpusSeed+1), seed)),
		hashStrings(ops),
	}
}

// The run's seed reorders a corpus and never changes what is in it, so a
// join finds the same number of pairs at every seed.
func TestShuffledKeepsTheCorpus(t *testing.T) {
	a, b := dataset.Author(2000, corpusSeed), shuffled(dataset.Author(2000, corpusSeed), 9)
	if slices.Equal(a, b) {
		t.Error("the seed did not reorder the corpus")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("the seed changed the corpus's content")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := inputHashes(7), inputHashes(7), inputHashes(8)
	if !slices.Equal(a, b) {
		t.Errorf("same seed, different inputs: %x vs %x", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("input %d is identical at seeds 7 and 8", i)
		}
	}
}

func TestQuerySetMix(t *testing.T) {
	corpus := dataset.Author(3000, 1)
	qs := makeQueries(corpus, 1000, 1)
	if len(qs) != 1000 {
		t.Fatalf("got %d queries", len(qs))
	}
	inCorpus := map[string]bool{}
	for _, s := range corpus {
		inCorpus[s] = true
	}
	seen := map[string]bool{}
	exact := 0
	for _, q := range qs {
		if q == "" || seen[q] {
			t.Fatalf("query %q is empty or repeated: a traced run joins spans on the query string", q)
		}
		seen[q] = true
		if inCorpus[q] {
			exact++
		}
	}
	// A quarter are exact corpus strings; a few edited ones may land on
	// another corpus string by chance.
	if exact < 250 || exact > 300 {
		t.Errorf("%d of 1000 queries are exact corpus strings, want about 250", exact)
	}
}

func TestEditStringDistance(t *testing.T) {
	rng := newRNG(3, streamQueries)
	for i := 0; i < 200; i++ {
		s := "jonathan smithers"
		for k := 0; k <= 6; k++ {
			if d := passjoin.EditDistance(s, editString(rng, s, k)); d > k {
				t.Fatalf("%d edits moved the string %d away", k, d)
			}
		}
	}
}

func TestOpScheduleMixAndOwnership(t *testing.T) {
	sched := opSchedule(1, 0, 0, 60000)
	n := map[byte]int{}
	owned, low := churnPrime, churnPrime
	for i, k := range sched {
		n[k]++
		switch k {
		case opInsert:
			owned++
		case opDelete:
			owned--
		}
		low = min(low, owned)
		if i%10 == 9 && owned != churnPrime {
			t.Fatalf("after block %d the client owns %d documents, want %d", i/10, owned, churnPrime)
		}
	}
	if n[opSearch] != 48000 || n[opInsert] != 6000 || n[opDelete] != 6000 {
		t.Errorf("mix = %v, want exactly 80/10/10", n)
	}
	if low < churnPrime-1 {
		t.Errorf("the client was down to %d documents: a delete could find nothing to delete", low)
	}
	if slices.Equal(sched, opSchedule(1, 1, 0, 60000)) || slices.Equal(sched, opSchedule(1, 0, 1, 60000)) {
		t.Error("clients and rounds must not share a schedule")
	}
}

func TestQueryStartKeepsClientsApart(t *testing.T) {
	h := newHarness(options{}, nil)
	h.clients = 2
	nq, ops := 50000, 20000
	for r := -1; r < 8; r++ {
		a, b := h.queryStart(0, r, nq), h.queryStart(1, r, nq)
		gap := (b - a + nq) % nq
		if gap < ops || nq-gap < ops {
			t.Errorf("round %d: clients start %d apart, closer than the %d ops each runs", r, gap, ops)
		}
	}
}

func TestSampleIndices(t *testing.T) {
	got := sampleIndices(1, 100, 10)
	slices.Sort(got)
	if len(slices.Compact(got)) != 10 || got[0] < 0 || got[9] >= 100 {
		t.Errorf("sampleIndices = %v", got)
	}
	if all := sampleIndices(1, 5, 10); len(all) != 5 {
		t.Errorf("a sample larger than the population must be the population, got %v", all)
	}
}
