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

// joinPlan is what a streaming join hands its runner: the indexed side —
// sorted by length, off its per-length offsets, sig its signatures — the
// probing side (ref itself for a self join) and its chunks, whether the
// chunks are the indexed side's own, how a match names its Pair — the
// probing string by its position cur in side, the indexed one by its id —
// and above, how far past a probing length l the window must reach: while
// strings of length l probe it, it holds the groups of [l−τ, l+above].
type joinPlan struct {
	ref    []string
	off    []int
	sig    []uint64
	side   []string
	chunks []span
	self   bool
	pair   func(cur int, rid int32) Pair
	above  int
}

// run runs the join j describes in the mode opt.Parallel picks, delivers
// its pairs to emit, and records the whole-join figures — the pairs
// delivered, the strings too short to partition, the index — in opt.Stats.
//
// At Parallel ≤ 1 it is the sequential scan of §3.2: a window of
// length groups, bulk-built as the scan reaches them (index.Window), probed
// a chunk at a time by the caller and one helper (joinPlan.pipe), whose
// pairs are delivered in the scan's order. Its footprint — IndexBytes,
// IndexEntries, PeakLiveGroups — is the window's at its largest over the
// slides up to that of the last chunk counted: the whole scan, or for a
// join emit stopped, the chunk that held its last pair. More, and the whole
// indexed side is known before any probe starts, so it is bulk-built once,
// by that many workers, into the immutable CSR arena every one of them then
// probes (streamEngine): full index residency instead of the window's
// O((τ+1)²) live groups, an extension beyond the single-threaded paper.
func (j *joinPlan) run(ctx context.Context, opt Options, emit func(Pair) bool) error {
	tau, st := opt.Tau, opt.Stats
	var results int64
	count := func(p Pair) bool {
		results++
		return emit(p)
	}
	// arm returns a block join over fz that counts into pst and verifies
	// batch tasks at a time.
	arm := func(fz *index.Frozen, pst *metrics.Stats, batch int) *blockJoin {
		p := newProber(tau, opt.Selection, opt.Verification, pst, nil, fz, j.ref, j.sig)
		return newBlockJoin(p, j.off, j.self, batch)
	}
	// record adds the whole-join figures to st once the join is through.
	record := func(groups int, bytes, entries int64) {
		if st != nil {
			st.Results += results
			st.ShortStrings += int64(j.off[index.FirstIndexed(j.off, tau)])
			st.IndexBytes, st.IndexEntries, st.PeakLiveGroups = bytes, entries, int64(groups)
		}
	}
	if opt.Parallel > 1 {
		fz, err := index.BuildFrozen(j.ref, tau, opt.Parallel)
		if err != nil {
			return fmt.Errorf("core: building index: %w", err)
		}
		e := &streamEngine{
			workers: opt.Parallel,
			chunks:  j.chunks,
			stats:   st,
			newWorker: func(wst *metrics.Stats, push func(Pair) bool, tick func() bool) func(span) bool {
				b := arm(fz, wst, taskBatchSize)
				b.p.emit = func(rid, _ int32) bool { return push(j.pair(b.cur(), rid)) }
				b.tick = tick
				return func(c span) bool { return b.probeBlock(j.side[c.lo:c.hi], c.lo) }
			},
		}
		err = e.run(ctx, count)
		record(0, fz.MapBytes(), fz.Entries())
		return err
	}
	win, err := index.NewWindow(j.ref, j.off, tau)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}
	// marks[k] is the window's length after its k-th slide, and its
	// footprint at its largest so far; kept only when st is.
	type mark struct {
		l, groups      int
		bytes, entries int64
	}
	var marks []mark
	counted, err := j.pipe(ctx, st, func(pst *metrics.Stats) *blockJoin { return arm(win.Frozen(), pst, pipeBatchSize) }, func(l int) {
		win.Slide(l-tau, l+j.above)
		if st != nil {
			g, b, e := win.Peak()
			marks = append(marks, mark{l, g, b, e})
		}
	}, count)
	// The footprint is the window's as of the slide to the last chunk
	// counted: the same slides, in the same order, at every GOMAXPROCS. A
	// chunk whose window has no group may have been verified before its
	// slide, but such a slide builds nothing, and leaves the peak alone.
	var m mark
	if counted > 0 {
		L := len(j.side[j.chunks[counted-1].lo])
		for _, x := range marks {
			if x.l <= L {
				m = x
			}
		}
	}
	record(m.groups, m.bytes, m.entries)
	return err
}

// streamEngine is the fan-out/collect machinery of a join on more than one
// worker. The chunks of the probe side are claimed largest first by up to
// workers goroutines (tasks.LargestFirst; a join of one chunk has one
// worker, still off the caller's goroutine), each pushing result
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
	if err == nil && workErr != nil {
		err = fmt.Errorf("core: join %w", workErr)
	}
	return err
}
