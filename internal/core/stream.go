package core

import (
	"context"
	"fmt"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
)

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

// run runs the join j describes, delivers its pairs to emit, and records
// the whole-join figures — the pairs delivered, the strings too short to
// partition, the index — in opt.Stats.
//
// It is the scan of §3.2: a window of length groups, bulk-built as the
// scan reaches them (index.Window), probed a chunk at a time by
// joinWorkers(opt.Parallel) workers — the caller and helpers — whose pairs
// are delivered in the scan's order (joinPlan.pipe). Its footprint —
// IndexBytes, IndexEntries, PeakLiveGroups — is the window's at its largest
// over the slides up to that of the last chunk counted: the whole scan, or
// for a join emit stopped, the chunk that held its last pair. The pairs,
// their order, the counters and the footprint are the same at every
// parallelism and every GOMAXPROCS.
func (j *joinPlan) run(ctx context.Context, opt Options, emit func(Pair) bool) error {
	tau, st := opt.Tau, opt.Stats
	win, err := index.NewWindow(j.ref, j.off, tau)
	if err != nil {
		return fmt.Errorf("core: building index: %w", err)
	}
	var results int64
	count := func(p Pair) bool {
		results++
		return emit(p)
	}
	// arm returns a worker: a block join over the window that counts into
	// pst.
	arm := func(pst *metrics.Stats) *blockJoin {
		p := newProber(tau, opt.Selection, opt.Verification, pst, nil, win.Frozen(), j.ref, j.sig)
		return newBlockJoin(p, j.off, j.self)
	}
	// marks[k] is the window's length after its k-th slide, and its
	// footprint at its largest so far; kept only when st is.
	type mark struct {
		l, groups      int
		bytes, entries int64
	}
	var marks []mark
	counted, err := j.pipe(ctx, st, joinWorkers(opt.Parallel), arm, func(l int) {
		win.Slide(l-tau, l+j.above)
		if st != nil {
			g, b, e := win.Peak()
			marks = append(marks, mark{l, g, b, e})
		}
	}, count)
	if st == nil {
		return err
	}
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
	st.Results += results
	st.ShortStrings += int64(j.off[index.FirstIndexed(j.off, tau)])
	st.IndexBytes, st.IndexEntries, st.PeakLiveGroups = m.bytes, m.entries, int64(m.groups)
	return err
}
