package core

import (
	"context"
	"math/rand"
	"testing"

	"passjoin/internal/metrics"
)

// §3.2's space bound: during a sequential self join the sliding window
// keeps groups for at most τ+1 lengths live — i.e. at most (τ+1)² inverted
// indices — however many goroutines share its lookups (GOMAXPROCS 1 to 4).
func TestSelfJoinLiveGroupBound(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var strs []string
	for i := 0; i < 400; i++ {
		strs = append(strs, randStr(rng, 5+rng.Intn(40), 4))
	}
	for procs := 1; procs <= 4; procs++ {
		for tau := 0; tau <= 4; tau++ {
			st := &metrics.Stats{}
			var err error
			withProcs(procs, func() { _, err = SelfJoin(strs, Options{Tau: tau, Stats: st}) })
			if err != nil {
				t.Fatal(err)
			}
			if st.PeakLiveGroups > int64(tau+1) {
				t.Errorf("GOMAXPROCS=%d tau=%d: %d live groups, bound %d", procs, tau, st.PeakLiveGroups, tau+1)
			}
		}
	}
}

// The R≠S scan keeps lengths in [|r|−τ, |r|+τ]: at most 2τ+1 live groups, at
// GOMAXPROCS 1 to 4.
func TestJoinLiveGroupBound(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var rset, sset []string
	for i := 0; i < 200; i++ {
		rset = append(rset, randStr(rng, 5+rng.Intn(40), 4))
		sset = append(sset, randStr(rng, 5+rng.Intn(40), 4))
	}
	for procs := 1; procs <= 4; procs++ {
		for tau := 0; tau <= 4; tau++ {
			st := &metrics.Stats{}
			var err error
			withProcs(procs, func() { _, err = Join(rset, sset, Options{Tau: tau, Stats: st}) })
			if err != nil {
				t.Fatal(err)
			}
			if st.PeakLiveGroups > int64(2*tau+1) {
				t.Errorf("GOMAXPROCS=%d tau=%d: %d live groups, bound %d", procs, tau, st.PeakLiveGroups, 2*tau+1)
			}
		}
	}
}

// Streaming forms agree with the materializing forms.
func TestSelfJoinFuncMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	strs := randomCorpus(rng, 150, 16, 3, 0.5, 3)
	want, err := SelfJoin(strs, Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []Pair
	if err := SelfJoinEach(context.Background(), strs, Options{Tau: 2}, func(p Pair) bool {
		got = append(got, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("func form: %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestSelfJoinFuncEarlyStopCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	strs := randomCorpus(rng, 150, 16, 3, 0.6, 2)
	st := &metrics.Stats{}
	n := 0
	if err := SelfJoinEach(context.Background(), strs, Options{Tau: 2, Stats: st}, func(Pair) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("delivered %d pairs", n)
	}
	if st.Results != 5 {
		t.Fatalf("stats recorded %d results", st.Results)
	}
}

func TestJoinFuncNilEmit(t *testing.T) {
	if err := SelfJoinEach(context.Background(), nil, Options{Tau: 1}, nil); err == nil {
		t.Error("nil emit accepted")
	}
	if err := JoinEach(context.Background(), nil, nil, Options{Tau: 1}, nil); err == nil {
		t.Error("nil emit accepted")
	}
}
