// Package tasks runs independent tasks of uneven size on a few goroutines.
package tasks

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// LargestFirst runs the tasks 0..n-1, each once, on min(workers, n)
// goroutines — the caller's own when that is one — and returns when all of
// them have. Tasks are claimed through one atomic counter in descending
// order of size (ties in index order): the long tail of small tasks then
// evens out whatever imbalance the few big ones leave between the workers,
// and the first task a worker claims is the largest it will see.
//
// worker is called once on each goroutine, with the goroutine's number from
// 0 up, and returns the function that goroutine runs its tasks with, so
// whatever scratch a worker reuses from task to task lives in that closure.
// A task that returns false stops the run: no further task is claimed, by
// any worker. So does a panic in worker or in a task, which is returned as
// an error instead of killing a process whose caller's recover — net/http's,
// say — the worker goroutines are outside of.
func LargestFirst(workers, n int, size func(k int) int, worker func(w int) (task func(k int) bool)) error {
	if n <= 0 {
		return nil
	}
	r := &run{order: make([]int, n), worker: worker}
	for k := range r.order {
		r.order[k] = k
	}
	slices.SortStableFunc(r.order, func(a, b int) int { return cmp.Compare(size(b), size(a)) })
	if workers = min(workers, n); workers <= 1 {
		r.work(0)
		return r.err
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	wg.Wait()
	return r.err
}

// run is the state the workers of one LargestFirst call share.
type run struct {
	order   []int // the tasks, largest first
	worker  func(w int) func(k int) bool
	claimed atomic.Int64
	stop    atomic.Bool
	failed  sync.Once
	err     error // the first panic; read after the workers are done
}

// work is worker w: it claims tasks until there are none or the run stops.
func (r *run) work(w int) {
	defer func() {
		if v := recover(); v != nil {
			r.stop.Store(true)
			r.failed.Do(func() { r.err = fmt.Errorf("worker panic: %v", v) })
		}
	}()
	task := r.worker(w)
	for !r.stop.Load() {
		k := int(r.claimed.Add(1)) - 1
		if k >= len(r.order) {
			return
		}
		if !task(r.order[k]) {
			r.stop.Store(true)
		}
	}
}
