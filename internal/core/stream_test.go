package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"passjoin/internal/metrics"
)

func collectStream(t *testing.T, ctx context.Context, strs []string, opt Options) []Pair {
	t.Helper()
	var out []Pair
	if err := SelfJoinEach(ctx, strs, opt, func(p Pair) bool {
		out = append(out, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	SortPairs(out)
	return out
}

// The tentpole equivalence: the parallel stream delivers exactly the
// sequential SelfJoin pair set at every parallelism level.
func TestSelfJoinStreamMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	strs := randomCorpus(rng, 300, 20, 3, 0.5, 3)
	for tau := 0; tau <= 3; tau++ {
		seq, err := SelfJoin(strs, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := collectStream(t, context.Background(), strs, Options{Tau: tau, Parallel: workers})
			if len(got) != len(seq) {
				t.Fatalf("tau=%d workers=%d: %d pairs vs %d sequential", tau, workers, len(got), len(seq))
			}
			for i := range seq {
				if got[i] != seq[i] {
					t.Fatalf("tau=%d workers=%d: pair %d differs: %v vs %v", tau, workers, i, got[i], seq[i])
				}
			}
		}
	}
}

func TestJoinStreamMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rset := randomCorpus(rng, 120, 16, 3, 0.4, 3)
	sset := randomCorpus(rng, 140, 16, 3, 0.4, 3)
	for tau := 0; tau <= 3; tau++ {
		seq, err := Join(rset, sset, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 6} {
			var got []Pair
			err := JoinEach(context.Background(), rset, sset, Options{Tau: tau, Parallel: workers}, func(p Pair) bool {
				got = append(got, p)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			SortPairs(got)
			if len(got) != len(seq) {
				t.Fatalf("tau=%d workers=%d: %d pairs vs %d sequential", tau, workers, len(got), len(seq))
			}
			for i := range seq {
				if got[i] != seq[i] {
					t.Fatalf("tau=%d workers=%d: pair %d differs", tau, workers, i)
				}
			}
		}
	}
}

func TestSelfJoinStreamEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	strs := randomCorpus(rng, 200, 14, 3, 0.6, 2)
	for _, workers := range []int{1, 4} {
		seen := 0
		err := SelfJoinEach(context.Background(), strs, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
			seen++
			return seen < 3
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if seen != 3 {
			t.Fatalf("workers=%d: early stop delivered %d pairs", workers, seen)
		}
	}
}

// Cancelling mid-join must stop it at every parallelism — the caller and
// every helper — surface ctx.Err() and leave no goroutine behind; the test hangs (and times out) if a stage or a worker
// never observes the cancellation. Run under -race to exercise the shutdown
// handshake.
func TestSelfJoinStreamCancelMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	strs := randomCorpus(rng, 400, 14, 2, 0.8, 1) // dense: many pairs
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := SelfJoinEach(ctx, strs, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
			seen++
			if seen == 2 {
				cancel()
			}
			return true
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if seen < 2 {
			t.Fatalf("workers=%d: cancelled before any pair was seen (%d)", workers, seen)
		}
		waitGoroutines(t, before)
	}
}

func TestJoinStreamCancelMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rset := randomCorpus(rng, 300, 12, 2, 0.8, 1)
	sset := randomCorpus(rng, 300, 12, 2, 0.8, 1)
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := JoinEach(ctx, rset, sset, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
			seen++
			if seen == 2 {
				cancel()
			}
			return true
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		waitGoroutines(t, before)
	}
}

func TestStreamCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SelfJoinEach(ctx, []string{"abc", "abd"}, Options{Tau: 1, Parallel: 2}, func(Pair) bool {
		t.Fatal("emit called on a dead context")
		return false
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	err = JoinEach(ctx, []string{"abc"}, []string{"abd"}, Options{Tau: 1}, func(Pair) bool { return true })
	if err != context.Canceled {
		t.Fatalf("JoinEach err = %v, want context.Canceled", err)
	}
}

func TestStreamValidationErrors(t *testing.T) {
	bg := context.Background()
	if err := SelfJoinEach(bg, nil, Options{Tau: -1}, func(Pair) bool { return true }); err == nil {
		t.Error("negative tau accepted by SelfJoinEach")
	}
	if err := SelfJoinEach(bg, nil, Options{Tau: 1}, nil); err == nil {
		t.Error("nil emit accepted by SelfJoinEach")
	}
	if err := JoinEach(bg, nil, nil, Options{Tau: -1}, func(Pair) bool { return true }); err == nil {
		t.Error("negative tau accepted by JoinEach")
	}
	if err := JoinEach(bg, nil, nil, Options{Tau: 1}, nil); err == nil {
		t.Error("nil emit accepted by JoinEach")
	}
	// A nil context defaults to Background instead of panicking.
	if err := SelfJoinEach(nil, []string{"ab", "ac"}, Options{Tau: 1}, func(Pair) bool { return true }); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
}

func TestStreamEmptyAndTinyInputs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if got := collectStream(t, context.Background(), nil, Options{Tau: 2, Parallel: workers}); len(got) != 0 {
			t.Fatalf("nil input emitted %v", got)
		}
		if got := collectStream(t, context.Background(), []string{"solo"}, Options{Tau: 2, Parallel: workers}); len(got) != 0 {
			t.Fatalf("single input emitted %v", got)
		}
		got := collectStream(t, context.Background(), []string{"", ""}, Options{Tau: 0, Parallel: workers})
		if len(got) != 1 {
			t.Fatalf("two empty strings at tau=0 emitted %v", got)
		}
	}
}

// The sort's tasks run on the same helper: a panic in one comes back as an
// error from the join that asked for the sort, serial or parallel, not as a
// crash of a worker goroutine no caller's recover covers.
func TestSortPanicSurfacesAsError(t *testing.T) {
	strs := []string{"ab", "cd", "abc", "abd", "x"}
	for _, workers := range []int{1, 2} {
		_, _, _, _, err := sortRecsBy(strs, workers, true, func(strs []string, l int, group, tmp []rec) []rec {
			if l == 3 {
				panic("sort blew up")
			}
			return sortGroup(strs, l, group, tmp)
		})
		if err == nil || !strings.Contains(err.Error(), "sort blew up") {
			t.Fatalf("workers=%d: err = %v, want surfaced task panic", workers, err)
		}
	}
}

// Stream stats must match the sequential run's totals for the whole-join
// counters, and the index footprint is the window's at its largest — live
// groups, and no more than the whole index (wholeIndex) — and the same at
// every parallelism: that of the default join.
func TestStreamStats(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	strs := randomCorpus(rng, 150, 15, 3, 0.5, 3)
	probes := randomCorpus(rng, 40, 15, 3, 0.5, 3)
	wholeBytes, wholeEntries := wholeIndex(t, strs, 2)
	var self, rs metrics.Stats // the default join's
	checkIndex := func(workers int, join string, st, want *metrics.Stats) {
		t.Helper()
		if workers == 0 {
			if st.PeakLiveGroups == 0 || st.IndexBytes > wholeBytes || st.IndexEntries > wholeEntries {
				t.Errorf("%s window peak %d groups, %d B / %d entries; whole index %d / %d", join, st.PeakLiveGroups, st.IndexBytes, st.IndexEntries, wholeBytes, wholeEntries)
			}
			*want = *st
		} else if st.IndexBytes != want.IndexBytes || st.IndexEntries != want.IndexEntries || st.PeakLiveGroups != want.PeakLiveGroups {
			t.Errorf("workers=%d: %s index %d B / %d entries / %d groups, the default join's %d / %d / %d", workers, join, st.IndexBytes, st.IndexEntries, st.PeakLiveGroups, want.IndexBytes, want.IndexEntries, want.PeakLiveGroups)
		}
	}
	for _, workers := range []int{0, 1, 2, 3, 4, 8} {
		st := &metrics.Stats{}
		got := collectStream(t, context.Background(), strs, Options{Tau: 2, Parallel: workers, Stats: st})
		if st.Results != int64(len(got)) {
			t.Errorf("workers=%d: Results=%d, want %d", workers, st.Results, len(got))
		}
		if st.Strings != int64(len(strs)) {
			t.Errorf("workers=%d: Strings=%d, want %d", workers, st.Strings, len(strs))
		}
		checkIndex(workers, "self join", st, &self)
		st = &metrics.Stats{}
		if err := JoinEach(context.Background(), probes, strs, Options{Tau: 2, Parallel: workers, Stats: st}, func(Pair) bool { return true }); err != nil {
			t.Fatal(err)
		}
		checkIndex(workers, "R-S join", st, &rs)
	}
}

func BenchmarkStreamSelfJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	strs := randomCorpus(rng, 1000, 18, 4, 0.5, 3)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				err := SelfJoinEach(context.Background(), strs, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
					n++
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
