package tasks

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Every task runs exactly once, on no more goroutines than asked for or
// than there are tasks, each with a number of its own; a single worker is
// the caller's goroutine and meets the tasks largest first, ties in index
// order.
func TestLargestFirstRunsEveryTaskOnce(t *testing.T) {
	sizes := []int{3, 9, 1, 9, 0, 7, 3}
	for _, workers := range []int{-1, 0, 1, 2, 3, 50} {
		var mu sync.Mutex
		var order, ws []int
		err := LargestFirst(workers, len(sizes), func(k int) int { return sizes[k] }, func(w int) func(int) bool {
			mu.Lock()
			ws = append(ws, w)
			mu.Unlock()
			return func(k int) bool {
				mu.Lock()
				order = append(order, k)
				mu.Unlock()
				return true
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		slices.Sort(ws)
		if want := min(max(workers, 1), len(sizes)); len(ws) != want || ws[0] != 0 || ws[len(ws)-1] != want-1 {
			t.Fatalf("workers=%d: worker numbers %v, want 0..%d", workers, ws, want-1)
		}
		if workers <= 1 {
			if want := []int{1, 3, 5, 0, 6, 2, 4}; !slices.Equal(order, want) {
				t.Fatalf("workers=%d: tasks ran in order %v, want %v", workers, order, want)
			}
		}
		slices.Sort(order)
		if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(order, want) {
			t.Fatalf("workers=%d: tasks run %v, want each of %v once", workers, order, want)
		}
	}
	if err := LargestFirst(4, 0, nil, func(int) func(int) bool { t.Fatal("a worker was started for no tasks"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// A task that reports false is the last one claimed, by anybody.
func TestLargestFirstStops(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var ran atomic.Int64
		err := LargestFirst(workers, 1000, func(int) int { return 1 }, func(int) func(int) bool {
			return func(k int) bool { return ran.Add(1) < 5 }
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each other worker may have claimed one task before it saw the stop.
		if n := ran.Load(); n < 5 || n > int64(5+workers-1) {
			t.Fatalf("workers=%d: %d tasks ran after the fifth said stop", workers, n)
		}
	}
}

// A panic — in a task or in setting a worker up — comes back as an error on
// the caller's goroutine and on spawned ones alike, and stops the run.
func TestLargestFirstPanicIsAnError(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var ran atomic.Int64
		err := LargestFirst(workers, 1000, func(int) int { return 1 }, func(int) func(int) bool {
			return func(k int) bool {
				if ran.Add(1) == 5 {
					panic("task blew up")
				}
				return true
			}
		})
		if err == nil || !strings.Contains(err.Error(), "task blew up") {
			t.Fatalf("workers=%d: err = %v, want the task's panic", workers, err)
		}
		if n := ran.Load(); n > int64(5+workers-1) {
			t.Fatalf("workers=%d: %d tasks ran, the fifth panicked", workers, n)
		}
		err = LargestFirst(workers, 10, func(int) int { return 1 }, func(w int) func(int) bool {
			panic("no scratch")
		})
		if err == nil || !strings.Contains(err.Error(), "no scratch") {
			t.Fatalf("workers=%d: err = %v, want the worker's panic", workers, err)
		}
	}
}
