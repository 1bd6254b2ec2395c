package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"passjoin/internal/metrics"
)

func collectStream(t *testing.T, ctx context.Context, strs []string, opt Options) []Pair {
	t.Helper()
	var out []Pair
	if err := SelfJoinStream(ctx, strs, opt, func(p Pair) bool {
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
			err := JoinStream(context.Background(), rset, sset, Options{Tau: tau, Parallel: workers}, func(p Pair) bool {
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
		err := SelfJoinStream(context.Background(), strs, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
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

// Cancelling mid-join must stop the workers and surface ctx.Err(); the
// test hangs (and times out) if a worker never observes the cancellation.
// Run under -race to exercise the shutdown handshake.
func TestSelfJoinStreamCancelMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	strs := randomCorpus(rng, 400, 14, 2, 0.8, 1) // dense: many pairs
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := SelfJoinStream(ctx, strs, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
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
	}
}

func TestJoinStreamCancelMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rset := randomCorpus(rng, 300, 12, 2, 0.8, 1)
	sset := randomCorpus(rng, 300, 12, 2, 0.8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := JoinStream(ctx, rset, sset, Options{Tau: 2, Parallel: 4}, func(Pair) bool {
		seen++
		if seen == 2 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStreamCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SelfJoinStream(ctx, []string{"abc", "abd"}, Options{Tau: 1, Parallel: 2}, func(Pair) bool {
		t.Fatal("emit called on a dead context")
		return false
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	err = JoinStream(ctx, []string{"abc"}, []string{"abd"}, Options{Tau: 1}, func(Pair) bool { return true })
	if err != context.Canceled {
		t.Fatalf("JoinStream err = %v, want context.Canceled", err)
	}
}

func TestStreamValidationErrors(t *testing.T) {
	bg := context.Background()
	if err := SelfJoinStream(bg, nil, Options{Tau: -1}, func(Pair) bool { return true }); err == nil {
		t.Error("negative tau accepted by SelfJoinStream")
	}
	if err := SelfJoinStream(bg, nil, Options{Tau: 1}, nil); err == nil {
		t.Error("nil emit accepted by SelfJoinStream")
	}
	if err := JoinStream(bg, nil, nil, Options{Tau: -1}, func(Pair) bool { return true }); err == nil {
		t.Error("negative tau accepted by JoinStream")
	}
	if err := JoinStream(bg, nil, nil, Options{Tau: 1}, nil); err == nil {
		t.Error("nil emit accepted by JoinStream")
	}
	// A nil context defaults to Background instead of panicking.
	if err := SelfJoinStream(nil, []string{"ab", "ac"}, Options{Tau: 1}, func(Pair) bool { return true }); err != nil {
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

// A panic inside a probe worker must come back as an error from run, not
// kill the process — the workers execute outside any caller recovery.
func TestStreamWorkerPanicSurfacesAsError(t *testing.T) {
	e := &streamEngine{
		workers: 2,
		chunks:  chunksOf([]int{0, 10 * blockChunk}), // ten chunks
		newWorker: func(_ *metrics.Stats, push func(Pair) bool, _ func() bool) func(span) bool {
			return func(c span) bool {
				if c.lo == 3*blockChunk {
					panic("probe blew up")
				}
				return push(Pair{R: int32(c.lo), S: int32(c.hi)})
			}
		},
	}
	err := e.run(context.Background(), func(Pair) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "probe blew up") {
		t.Fatalf("err = %v, want surfaced worker panic", err)
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
// counters that are parallelism-invariant, and the index footprint must be
// the map index's (IndexFootprint builds it with Add, as the stream joins
// did before they bulk-built) at any worker count.
func TestStreamStats(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	strs := randomCorpus(rng, 150, 15, 3, 0.5, 3)
	probes := randomCorpus(rng, 40, 15, 3, 0.5, 3)
	wantBytes, wantEntries := IndexFootprint(strs, 2)
	for _, workers := range []int{1, 4} {
		st := &metrics.Stats{}
		got := collectStream(t, context.Background(), strs, Options{Tau: 2, Parallel: workers, Stats: st})
		if st.Results != int64(len(got)) {
			t.Errorf("workers=%d: Results=%d, want %d", workers, st.Results, len(got))
		}
		if st.Strings != int64(len(strs)) {
			t.Errorf("workers=%d: Strings=%d, want %d", workers, st.Strings, len(strs))
		}
		if st.IndexBytes != wantBytes || st.IndexEntries != wantEntries {
			t.Errorf("workers=%d: self join index %d B / %d entries, map index %d / %d", workers, st.IndexBytes, st.IndexEntries, wantBytes, wantEntries)
		}
		st = &metrics.Stats{}
		if err := JoinStream(context.Background(), probes, strs, Options{Tau: 2, Parallel: workers, Stats: st}, func(Pair) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if st.IndexBytes != wantBytes || st.IndexEntries != wantEntries {
			t.Errorf("workers=%d: R-S join index %d B / %d entries, map index %d / %d", workers, st.IndexBytes, st.IndexEntries, wantBytes, wantEntries)
		}
	}
}

func BenchmarkStreamSelfJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	strs := randomCorpus(rng, 1000, 18, 4, 0.5, 3)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				err := SelfJoinStream(context.Background(), strs, Options{Tau: 2, Parallel: workers}, func(Pair) bool {
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
