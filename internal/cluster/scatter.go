package cluster

import (
	"context"
	"sync"
)

// Result1 is one member's outcome in a Scatter fan-out.
type Result1[T any] struct {
	Member Info
	Value  T
	Err    error
}

// Scatter runs fn once per member, all members at once, and returns the
// per-member outcomes in member order. fn must honor ctx; Scatter itself
// never cancels early — the coordinator decides per route whether one
// failure aborts the request or degrades it to a partial response.
func Scatter[T any](ctx context.Context, members []Info, fn func(context.Context, Info) (T, error)) []Result1[T] {
	out := make([]Result1[T], len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m Info) {
			defer wg.Done()
			v, err := fn(ctx, m)
			out[i] = Result1[T]{Member: m, Value: v, Err: err}
		}(i, m)
	}
	wg.Wait()
	return out
}
