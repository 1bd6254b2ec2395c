package core

import (
	"context"
	"fmt"
	"sync"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
)

// streamBatchSize is how many pairs a probe worker accumulates before
// publishing them to the consumer. Batching amortizes the channel
// synchronization; the value bounds per-worker buffered output, so total
// in-flight memory is O(workers · streamBatchSize) pairs regardless of the
// result-set size.
const streamBatchSize = 256

// SelfJoinStream is the parallel, cancellable streaming form of SelfJoin:
// the frozen segment index is bulk-built once over all of strs (no
// eviction) by opt.Parallel workers (min 1), which then probe it and feed
// result pairs through a bounded channel to emit. The full result set is
// never materialized — memory stays at the index plus O(workers) pair
// batches, with backpressure: when emit falls behind, the probe workers
// block.
//
// emit is always called from the calling goroutine, so it needs no
// synchronization; pairs arrive in no deterministic order (canonicalize
// with SortPairs when order matters). emit returning false stops the join
// early and returns nil. A ctx cancellation stops the workers promptly
// (they check between strings) and returns ctx.Err().
func SelfJoinStream(ctx context.Context, strs []string, opt Options, emit func(Pair) bool) error {
	if opt.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if emit == nil {
		return fmt.Errorf("core: nil emit callback")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tau := opt.Tau
	st := opt.Stats
	ref, orig, off, sig, err := sortRecs(strs, opt.Parallel, true) // sig: one array, read by every worker
	if err != nil {
		return err
	}
	n := len(ref)
	// The whole corpus is known before any probe starts, so the index is
	// bulk-built straight into the immutable CSR arena every worker probes.
	fz, err := index.BuildFrozen(ref, tau, opt.Parallel)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}

	e := &streamEngine{
		workers: streamWorkers(opt.Parallel, n),
		items:   n,
		stats:   st,
		newProber: func(wst *metrics.Stats) *prober {
			return newProber(tau, opt.Selection, opt.Verification, wst, nil, fz, ref, sig)
		},
		probeItem: func(p *prober, sid int, push func(Pair) bool) bool {
			for _, rid := range p.probeSelf(sid, off) {
				if !push(normalize(orig[rid], orig[sid])) {
					return false
				}
			}
			return true
		},
		finish: streamFinish(st, fz, offAt(off, tau+1)),
	}
	return e.run(ctx, emit)
}

// JoinStream is the parallel, cancellable streaming form of Join: all of
// sset is bulk-indexed once by opt.Parallel workers, which then probe the
// rset strings and feed pairs through a bounded channel to emit.
// Semantics (callback goroutine, ordering, early stop, cancellation,
// backpressure) match SelfJoinStream.
func JoinStream(ctx context.Context, rset, sset []string, opt Options, emit func(Pair) bool) error {
	if opt.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", opt.Tau)
	}
	if emit == nil {
		return fmt.Errorf("core: nil emit callback")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tau := opt.Tau
	st := opt.Stats
	ref, orig, off, sig, err := sortRecs(sset, opt.Parallel, true) // sig: one array, read by every worker
	if err != nil {
		return err
	}
	fz, err := index.BuildFrozen(ref, tau, opt.Parallel)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}

	e := &streamEngine{
		workers: streamWorkers(opt.Parallel, len(rset)),
		items:   len(rset),
		stats:   st,
		newProber: func(wst *metrics.Stats) *prober {
			return newProber(tau, opt.Selection, opt.Verification, wst, nil, fz, ref, sig)
		},
		probeItem: func(p *prober, rid int, push func(Pair) bool) bool {
			for _, sid := range p.probeRS(rset[rid], off) {
				if !push(Pair{R: int32(rid), S: orig[sid]}) {
					return false
				}
			}
			return true
		},
		finish: streamFinish(st, fz, offAt(off, tau+1)),
	}
	return e.run(ctx, emit)
}

// streamFinish returns the whole-join stats a stream join records once its
// workers are done: the pairs delivered, the strings too short to
// partition, and the footprint of the index all of them probed.
func streamFinish(st *metrics.Stats, fz *index.Frozen, shorts int) func(emitted int64) {
	return func(emitted int64) {
		if st != nil {
			st.Results += emitted
			st.ShortStrings += int64(shorts)
			st.IndexBytes = fz.MapBytes()
			st.IndexEntries = fz.Entries()
		}
	}
}

// streamWorkers clamps the requested parallelism to [1, items].
func streamWorkers(parallel, items int) int {
	w := parallel
	if w < 1 {
		w = 1
	}
	if w > items {
		w = maxInt(1, items)
	}
	return w
}

// streamEngine is the fan-out/collect machinery shared by SelfJoinStream
// and JoinStream. Each worker owns a prober and walks the items strided
// (item w, w+workers, …), pushing result pairs into a per-worker batch
// that is published on a bounded channel; the consumer — the calling
// goroutine — drains batches and invokes emit sequentially. Workers block
// on the channel when the consumer falls behind (backpressure) and bail
// out via the done channel on early stop or ctx cancellation.
type streamEngine struct {
	workers   int
	items     int
	stats     *metrics.Stats
	newProber func(wst *metrics.Stats) *prober
	// probeItem probes one item and pushes its pairs; returning false means
	// a push was refused (the consumer is gone) and the worker must exit.
	probeItem func(p *prober, item int, push func(Pair) bool) bool
	// finish records final whole-join stats; emitted is the number of pairs
	// actually delivered to emit.
	finish func(emitted int64)
}

func (e *streamEngine) run(ctx context.Context, emit func(Pair) bool) error {
	out := make(chan []Pair, e.workers)
	done := make(chan struct{}) // closed on early stop or cancellation
	wstats := make([]metrics.Stats, e.workers)
	// Worker goroutines run outside any caller recovery (e.g. net/http's
	// per-connection recover), so a panic in probe/verify code would kill
	// the whole process; capture the first one and surface it as an error.
	var panicMu sync.Mutex
	var panicErr error
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicMu.Lock()
					if panicErr == nil {
						panicErr = fmt.Errorf("core: join worker panic: %v", v)
					}
					panicMu.Unlock()
				}
			}()
			var wst *metrics.Stats
			if e.stats != nil {
				wst = &wstats[w]
			}
			p := e.newProber(wst)
			buf := make([]Pair, 0, streamBatchSize)
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				b := append([]Pair(nil), buf...)
				buf = buf[:0]
				select {
				case out <- b:
					return true
				case <-done:
					return false
				}
			}
			push := func(pr Pair) bool {
				buf = append(buf, pr)
				if len(buf) >= streamBatchSize {
					return flush()
				}
				return true
			}
			// tryFlush publishes a partial batch only when the channel has
			// room: sparse joins then deliver pairs as soon as the consumer
			// keeps up (instead of sitting on a never-full batch until the
			// stride ends), while a busy channel keeps batching instead of
			// blocking the probe loop.
			tryFlush := func() bool {
				if len(buf) == 0 || len(out) == cap(out) {
					return true
				}
				select {
				case <-done:
					return false
				default:
				}
				b := append([]Pair(nil), buf...)
				select {
				case out <- b:
					buf = buf[:0]
				default: // consumer fell behind since the len check; keep batching
				}
				return true
			}
			for item := w; item < e.items; item += e.workers {
				select {
				case <-done:
					return
				default:
				}
				if !e.probeItem(p, item, push) {
					return
				}
				if !tryFlush() {
					return
				}
				if wst != nil {
					wst.Strings++
				}
			}
			flush()
		}(w)
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	var emitted int64
	var err error
consume:
	for {
		// Deterministic cancellation check first: a racing select could
		// otherwise keep draining batches after the context died.
		if err = ctx.Err(); err != nil {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break consume
		case b, ok := <-out:
			if !ok {
				break consume
			}
			for _, pr := range b {
				emitted++
				if !emit(pr) {
					break consume
				}
			}
		}
	}
	// Unblock any worker parked on a send, then wait for them all so the
	// per-worker stats are final and no goroutine outlives the call.
	close(done)
	wg.Wait()
	for w := range wstats {
		e.stats.Add(&wstats[w])
	}
	if e.finish != nil {
		e.finish(emitted)
	}
	if err == nil && panicErr != nil {
		err = panicErr
	}
	return err
}
