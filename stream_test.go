package passjoin

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/index"
)

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].R != ps[b].R {
			return ps[a].R < ps[b].R
		}
		return ps[a].S < ps[b].S
	})
}

func TestSelfJoinEachMatchesSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	strs := testCorpus(rng, 200)
	want, err := SelfJoin(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []Pair
	err = SelfJoinEach(strs, 2, func(r, s int) bool {
		got = append(got, Pair{R: r, S: s})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(a, b int) bool {
		if got[a].R != got[b].R {
			return got[a].R < got[b].R
		}
		return got[a].S < got[b].S
	})
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSelfJoinEachEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	strs := testCorpus(rng, 200)
	seen := 0
	err := SelfJoinEach(strs, 2, func(r, s int) bool {
		seen++
		return seen < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("early stop delivered %d pairs", seen)
	}
}

func TestJoinEachMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	rset := testCorpus(rng, 80)
	sset := testCorpus(rng, 90)
	want, err := Join(rset, sset, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []Pair
	err = JoinEach(rset, sset, 2, func(r, s int) bool {
		got = append(got, Pair{R: r, S: s})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, want %d", len(got), len(want))
	}
}

func TestJoinEachEarlyStop(t *testing.T) {
	rset := []string{"abc", "abd", "abe"}
	sset := []string{"abc", "abd", "abe"}
	n := 0
	err := JoinEach(rset, sset, 1, func(r, s int) bool {
		n++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d pairs after stop", n)
	}
}

// WithParallelism is now honored by the streaming forms: every
// parallelism level must deliver exactly the sequential pair set.
func TestSelfJoinEachParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	strs := testCorpus(rng, 250)
	want, err := SelfJoin(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		var got []Pair
		err := SelfJoinEach(strs, 2, func(r, s int) bool {
			got = append(got, Pair{R: r, S: s})
			return true
		}, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pair %d: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestJoinEachParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	rset := testCorpus(rng, 120)
	sset := testCorpus(rng, 130)
	want, err := Join(rset, sset, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []Pair
	err = JoinEach(rset, sset, 2, func(r, s int) bool {
		got = append(got, Pair{R: r, S: s})
		return true
	}, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// sequentialOpts are the two ways to ask for the sequential scan.
var sequentialOpts = map[string][]Option{"default": nil, "WithParallelism(1)": {WithParallelism(1)}}

// checkWindowStats fails t unless st is a sequential scan's: a window of
// live groups at its peak, no larger than the whole index over indexed.
func checkWindowStats(t *testing.T, name string, st *Stats, indexed []string, tau int) {
	t.Helper()
	fz, err := index.BuildFrozen(indexed, tau, 1)
	if err != nil {
		t.Fatal(err)
	}
	bytes := fz.MapBytes()
	if st.PeakLiveGroups <= 0 || st.IndexBytes <= 0 || st.IndexBytes > bytes {
		t.Errorf("%s: peak %d live groups, %d index bytes; want a window, at most the whole index's %d", name, st.PeakLiveGroups, st.IndexBytes, bytes)
	}
}

// The Ctx form runs the mode WithParallelism picks, as the other forms do:
// at the default and at one worker, the sequential scan, which yields
// exactly the sequence SelfJoinEach does; with workers, the same set.
func TestSelfJoinEachCtxMatchesSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	strs := testCorpus(rng, 200)
	want, err := SelfJoin(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range sequentialOpts {
		var seq, got []Pair
		if err := SelfJoinEach(strs, 2, func(r, s int) bool {
			seq = append(seq, Pair{R: r, S: s})
			return true
		}, opts...); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := SelfJoinEachCtx(context.Background(), strs, 2, func(r, s int) bool {
			got = append(got, Pair{R: r, S: s})
			return true
		}, append(opts, WithStats(&st))...); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !slices.Equal(got, seq) {
			t.Fatalf("%s: SelfJoinEachCtx yielded %d pairs, not SelfJoinEach's sequence of %d", name, len(got), len(seq))
		}
		checkWindowStats(t, name, &st, strs, 2)
	}
	for _, workers := range []int{2, 4} {
		var got []Pair
		err := SelfJoinEachCtx(context.Background(), strs, 2, func(r, s int) bool {
			got = append(got, Pair{R: r, S: s})
			return true
		}, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(got)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
	}
}

func TestJoinEachCtxMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	rset := testCorpus(rng, 100)
	sset := testCorpus(rng, 110)
	want, err := Join(rset, sset, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range sequentialOpts {
		var seq, got []Pair
		if err := JoinEach(rset, sset, 2, func(r, s int) bool {
			seq = append(seq, Pair{R: r, S: s})
			return true
		}, opts...); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := JoinEachCtx(context.Background(), rset, sset, 2, func(r, s int) bool {
			got = append(got, Pair{R: r, S: s})
			return true
		}, append(opts, WithStats(&st))...); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !slices.Equal(got, seq) {
			t.Fatalf("%s: JoinEachCtx yielded %d pairs, not JoinEach's sequence of %d", name, len(got), len(seq))
		}
		checkWindowStats(t, name, &st, sset, 2)
	}
	var got []Pair
	err = JoinEachCtx(context.Background(), rset, sset, 2, func(r, s int) bool {
		got = append(got, Pair{R: r, S: s})
		return true
	}, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
}

// Cancelling the context mid-join must stop the stream promptly and
// surface context.Canceled; the test hangs if the workers never notice.
func TestSelfJoinEachCtxCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	strs := testCorpus(rng, 400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := SelfJoinEachCtx(ctx, strs, 3, func(r, s int) bool {
		seen++
		if seen == 1 {
			cancel()
		}
		return true
	}, WithParallelism(4))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestJoinEachCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := JoinEachCtx(ctx, []string{"abc"}, []string{"abd"}, 1, func(r, s int) bool {
		t.Fatal("yield on dead context")
		return false
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSelfJoinEachCtxEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	strs := testCorpus(rng, 200)
	seen := 0
	err := SelfJoinEachCtx(context.Background(), strs, 2, func(r, s int) bool {
		seen++
		return seen < 3
	}, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("early stop delivered %d pairs", seen)
	}
}

func TestStreamValidation(t *testing.T) {
	if err := SelfJoinEach(nil, -1, func(int, int) bool { return true }); err == nil {
		t.Error("negative tau accepted")
	}
	if err := SelfJoinEach(nil, 1, nil); err == nil {
		t.Error("nil yield accepted")
	}
	if err := JoinEach(nil, nil, 1, nil); err == nil {
		t.Error("nil yield accepted in JoinEach")
	}
	if err := SelfJoinEachCtx(context.Background(), nil, -1, func(int, int) bool { return true }); err == nil {
		t.Error("negative tau accepted in SelfJoinEachCtx")
	}
	if err := SelfJoinEachCtx(context.Background(), nil, 1, nil); err == nil {
		t.Error("nil yield accepted in SelfJoinEachCtx")
	}
	if err := JoinEachCtx(context.Background(), nil, nil, 1, nil); err == nil {
		t.Error("nil yield accepted in JoinEachCtx")
	}
}

func TestStreamWithStats(t *testing.T) {
	var st Stats
	strs := []string{"abc", "abd", "xyz"}
	err := SelfJoinEach(strs, 1, func(r, s int) bool { return true }, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != 1 || st.Strings != 3 {
		t.Errorf("stats: %+v", st)
	}
}

// TestJoinCornerWords runs cornerWords through the four join entry points —
// self and R≠S, sorted and streamed — in the window scan at GOMAXPROCS 1 and
// 4 and in the index-once mode, and holds each to brute force.
func TestJoinCornerWords(t *testing.T) {
	sset := cornerWords()
	var rset []string
	for k := 0; k < len(sset); k += 3 {
		rset = append(rset, sset[k])
	}
	for _, tau := range []int{0, 1, 2, 3} {
		wantSelf, wantRS := []Pair{}, []Pair{}
		for _, p := range bruteforce.SelfJoin(sset, tau) {
			wantSelf = append(wantSelf, Pair{int(p.R), int(p.S)})
		}
		for _, p := range bruteforce.Join(rset, sset, tau) {
			wantRS = append(wantRS, Pair{int(p.R), int(p.S)})
		}
		sortPairs(wantSelf)
		sortPairs(wantRS)
		streamed := func(join func(yield func(r, s int) bool) error) ([]Pair, error) {
			got := []Pair{}
			err := join(func(r, s int) bool {
				got = append(got, Pair{r, s})
				return true
			})
			sortPairs(got)
			return got, err
		}
		for _, mode := range []struct {
			name  string
			procs int
			opts  []Option
		}{{"window/procs=1", 1, nil}, {"window/procs=4", 4, nil}, {"parallel=2", runtime.GOMAXPROCS(0), []Option{WithParallelism(2)}}} {
			joins := map[string]func() ([]Pair, error){
				"SelfJoin": func() ([]Pair, error) { return SelfJoin(sset, tau, mode.opts...) },
				"Join":     func() ([]Pair, error) { return Join(rset, sset, tau, mode.opts...) },
				"SelfJoinEach": func() ([]Pair, error) {
					return streamed(func(yield func(r, s int) bool) error { return SelfJoinEach(sset, tau, yield, mode.opts...) })
				},
				"JoinEach": func() ([]Pair, error) {
					return streamed(func(yield func(r, s int) bool) error { return JoinEach(rset, sset, tau, yield, mode.opts...) })
				},
			}
			for name, join := range joins {
				var got []Pair
				var err error
				withProcs(mode.procs, func() { got, err = join() })
				want := wantSelf
				if !strings.HasPrefix(name, "Self") {
					want = wantRS
				}
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("tau=%d %s %s: %d pairs (err %v), brute force %d", tau, mode.name, name, len(got), err, len(want))
				}
			}
		}
	}
}

// withProcs runs f at GOMAXPROCS n, and then restores GOMAXPROCS.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}
