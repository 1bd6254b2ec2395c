package passjoin

import (
	"math/rand"
	"sort"
	"testing"

	"passjoin/internal/metrics"
)

func TestTopKBasic(t *testing.T) {
	strs := []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "icde "}
	got, err := TopK(strs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d pairs", len(got))
	}
	// All three injected near-pairs have distance 1.
	for _, p := range got {
		if p.Dist != 1 {
			t.Errorf("pair %v has dist %d, want 1", p, p.Dist)
		}
		if EditDistance(strs[p.R], strs[p.S]) != p.Dist {
			t.Errorf("reported distance mismatch for %v", p)
		}
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	strs := testCorpus(rng, 60)
	for _, k := range []int{1, 5, 17} {
		got, err := TopK(strs, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(strs, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d pair %d: got %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestTopKStatsSumsRounds: the WithStats sink of a TopK holds the counters
// of all its rounds added together, as SelfJoin reports them at τ = 0, 1, …
// up to the first τ with k pairs.
func TestTopKStatsSumsRounds(t *testing.T) {
	strs := []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "icde ", "sigir", "kdd"}
	const k = 4
	var want metrics.Stats
	rounds := 0
	for tau := 0; ; tau++ {
		var st Stats
		pairs, err := SelfJoin(strs, tau, WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		want.Add((*metrics.Stats)(&st))
		rounds++
		if len(pairs) >= k {
			break
		}
	}
	if rounds < 2 || want.Lookups == 0 {
		t.Fatalf("%d rounds, %d lookups: the corpus does not test a sum", rounds, want.Lookups)
	}
	var got Stats
	if _, err := TopK(strs, k, WithStats(&got)); err != nil {
		t.Fatal(err)
	}
	if metrics.Stats(got) != want {
		t.Fatalf("TopK's stats over %d rounds:\n got %v\nwant %v", rounds, &got, (*Stats)(&want))
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if _, err := TopK(nil, -1); err == nil {
		t.Error("negative k accepted")
	}
	if got, _ := TopK(nil, 5); len(got) != 0 {
		t.Error("empty corpus should yield nothing")
	}
	if got, _ := TopK([]string{"solo"}, 5); len(got) != 0 {
		t.Error("single string should yield nothing")
	}
	// k exceeding total pairs: return all pairs.
	strs := []string{"a", "b", "c"}
	got, err := TopK(strs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want all 3", len(got))
	}
}

func TestTopKZero(t *testing.T) {
	got, err := TopK([]string{"a", "b"}, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("k=0: %v %v", got, err)
	}
}

func TestTopKDeterministicOrder(t *testing.T) {
	strs := []string{"aa", "ab", "ba", "bb"}
	a, _ := TopK(strs, 4)
	b, _ := TopK(strs, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic order")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Dist < a[i-1].Dist {
			t.Fatal("not sorted by distance")
		}
	}
}

func bruteTopK(strs []string, k int) []PairDist {
	var all []PairDist
	for i := range strs {
		for j := i + 1; j < len(strs); j++ {
			all = append(all, PairDist{R: i, S: j, Dist: EditDistance(strs[i], strs[j])})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		if all[a].R != all[b].R {
			return all[a].R < all[b].R
		}
		return all[a].S < all[b].S
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
