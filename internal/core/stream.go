package core

import (
	"context"
	"fmt"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/tasks"
)

// streamBatchSize is how many pairs a probe worker accumulates before
// publishing them to the consumer. Batching amortizes the channel
// synchronization; the value bounds per-worker buffered output, so total
// in-flight memory is O(workers · streamBatchSize) pairs regardless of the
// result-set size.
const streamBatchSize = 256

// SelfJoinStream is the parallel, cancellable streaming form of SelfJoin:
// the frozen segment index is bulk-built once over all of strs (no
// eviction) by opt.Parallel workers (min 1), which then probe it — a chunk
// of equal-length strings at a time (blockJoin), the chunks claimed largest
// first — and feed result pairs through a bounded channel to emit. The full
// result set is never materialized — memory stays at the index plus
// O(workers) pair batches, with backpressure: when emit falls behind, the
// probe workers block.
//
// emit is always called from the calling goroutine, so it needs no
// synchronization; pairs arrive in no deterministic order (canonicalize
// with SortPairs when order matters). emit returning false stops the join
// early and returns nil. A ctx cancellation stops the workers promptly
// (they check between batches of index.BlockBatchSize strings' lookups) and
// returns ctx.Err().
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
	// The whole corpus is known before any probe starts, so the index is
	// bulk-built straight into the immutable CSR arena every worker probes.
	fz, err := index.BuildFrozen(ref, tau, opt.Parallel)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}

	e := &streamEngine{
		workers: opt.Parallel,
		chunks:  chunksOf(off),
		stats:   st,
		newWorker: func(wst *metrics.Stats, push func(Pair) bool, tick func() bool) func(span) bool {
			p := newProber(tau, opt.Selection, opt.Verification, wst, nil, fz, ref, sig)
			j := newBlockJoin(p, off, true)
			j.tick = tick
			p.emit = func(rid, _ int32) bool { return push(normalize(orig[rid], orig[j.cur()])) }
			return func(c span) bool { return j.probeBlock(ref[c.lo:c.hi], c.lo) }
		},
		finish: streamFinish(st, fz, off[index.FirstIndexed(off, tau)]),
	}
	return e.run(ctx, emit)
}

// JoinStream is the parallel, cancellable streaming form of Join: all of
// sset is bulk-indexed once by opt.Parallel workers, which then probe the
// rset strings, sorted into chunks of one length, and feed pairs through a
// bounded channel to emit. Semantics (callback goroutine, ordering, early
// stop, cancellation, backpressure) match SelfJoinStream.
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
	rRef, rOrig, rOff, _, err := sortRecs(rset, opt.Parallel, false) // only probed with: ordered, not copied
	if err != nil {
		return err
	}
	ref, orig, off, sig, err := sortRecs(sset, opt.Parallel, true) // sig: one array, read by every worker
	if err != nil {
		return err
	}
	fz, err := index.BuildFrozen(ref, tau, opt.Parallel)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}

	e := &streamEngine{
		workers: opt.Parallel,
		chunks:  chunksOf(rOff),
		stats:   st,
		newWorker: func(wst *metrics.Stats, push func(Pair) bool, tick func() bool) func(span) bool {
			p := newProber(tau, opt.Selection, opt.Verification, wst, nil, fz, ref, sig)
			j := newBlockJoin(p, off, false)
			j.tick = tick
			p.emit = func(sid, _ int32) bool { return push(Pair{R: rOrig[j.cur()], S: orig[sid]}) }
			return func(c span) bool { return j.probeBlock(rRef[c.lo:c.hi], c.lo) }
		},
		finish: streamFinish(st, fz, off[index.FirstIndexed(off, tau)]),
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

// streamEngine is the fan-out/collect machinery shared by SelfJoinStream
// and JoinStream. The chunks of the probe side are claimed largest first by
// up to workers goroutines (tasks.LargestFirst; min 1, and
// one worker still probes off the caller's goroutine), each pushing result
// pairs into a batch of its own that is published on a bounded channel; the
// consumer — the calling goroutine — drains batches and invokes emit
// sequentially. Workers block on the channel when the consumer falls behind
// (backpressure) and bail out via the done channel on early stop or ctx
// cancellation.
type streamEngine struct {
	workers int
	chunks  []span
	stats   *metrics.Stats
	// newWorker returns what one worker probes a chunk with. The worker
	// counts into wst (the chunk's strings too, once it is through), delivers
	// through push, and calls tick wherever it can stop (between the batches
	// of a chunk); push, tick or the returned function reporting false means
	// the consumer is gone and the worker must unwind.
	newWorker func(wst *metrics.Stats, push func(Pair) bool, tick func() bool) (probe func(c span) bool)
	// finish records final whole-join stats; emitted is the number of pairs
	// actually delivered to emit.
	finish func(emitted int64)
}

func (e *streamEngine) run(ctx context.Context, emit func(Pair) bool) error {
	workers := max(min(e.workers, len(e.chunks)), 1)
	out := make(chan []Pair, workers)
	done := make(chan struct{}) // closed on early stop or cancellation
	wstats := make([]metrics.Stats, workers)
	var workErr error // a worker's panic; read once out is closed
	go func() {
		defer close(out)
		size := func(k int) int { return e.chunks[k].hi - e.chunks[k].lo }
		workErr = tasks.LargestFirst(workers, len(e.chunks), size, func(w int) func(int) bool {
			var wst *metrics.Stats
			if e.stats != nil {
				wst = &wstats[w]
			}
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
			// tick is where a worker notices that the consumer is gone, and
			// publishes a partial batch if the channel has room: sparse
			// joins then deliver pairs as soon as the consumer keeps up
			// (instead of sitting on a never-full batch until the chunk
			// ends), while a busy channel keeps batching instead of
			// blocking the probe loop.
			tick := func() bool {
				select {
				case <-done:
					return false
				default:
				}
				if len(buf) == 0 || len(out) == cap(out) {
					return true
				}
				b := append([]Pair(nil), buf...)
				select {
				case out <- b:
					buf = buf[:0]
				default: // consumer fell behind since the len check; keep batching
				}
				return true
			}
			probe := e.newWorker(wst, push, tick)
			return func(k int) bool {
				return tick() && probe(e.chunks[k]) && flush()
			}
		})
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
	// Unblock any worker parked on a send, then wait for them all — out is
	// closed once the last has returned — so the per-worker stats are final
	// and no goroutine outlives the call.
	close(done)
	for range out {
	}
	for w := range wstats {
		e.stats.Add(&wstats[w])
	}
	if e.finish != nil {
		e.finish(emitted)
	}
	if err == nil && workErr != nil {
		err = fmt.Errorf("core: join %w", workErr)
	}
	return err
}
