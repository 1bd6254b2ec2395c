package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// pipe runs a serial join's scan — the chunks of side, the probing strings
// sorted by length, against a window of length groups that slide(L) moves to
// a chunk length L — with the lookup stage on up to maxLookups goroutines of
// its own and the verify stage, emit included, on the caller's.
//
// The lookup stage's unit is a segment: the lookups of one chunk against one
// length group of its window (blockJoin.window), and none for a chunk whose
// window has no group. The goroutines claim the segments in scan order —
// chunk by chunk, a chunk's groups by ascending length — and each waits only
// until its own group is in the window. The window slides to a chunk length
// once every segment of the shorter chunks is claimed and none that reads a
// group it releases is still looking up, so that no more groups are ever live
// than the scan of §3.2 keeps; a goroutine slides it while the others look
// up in the groups it keeps.
//
// The verify stage takes every segment's batches in scan order, and a
// chunk's segments by ascending length are exactly the task stream of the
// string-at-a-time scan: whatever the number of goroutines, the pairs come
// in the same order, and every counter is the same, since a batch carries
// the lookups that filled it and goes to the join's stats when the verify
// stage takes it — a join stopped at its k-th pair included. The stages pass
// pipeBatches batches in all, which is all the scan allocates for its tasks.
//
// A cancelled ctx stops the lookup goroutines at their next tick, and the
// verify stage before the next batch it takes; the scan then returns
// ctx.Err(), unless emit had stopped it. It returns once every lookup
// goroutine is gone — when emit stops the join or panics too — and reports a
// panic of one of them, or of slide, as an error.
func (j *blockJoin) pipe(ctx context.Context, side []string, chunks []span, slide func(l int)) (err error) {
	p := j.p
	s := newScan(j, ctx.Done(), side, chunks, slide)
	j.tick = s.open
	j.strs, j.base = side, 0
	for w := range s.held {
		go j.newLookupStage(s, w).work()
	}
	defer func() {
		s.stop()
		for range s.full {
		}
		if err == nil {
			err = s.err
		}
	}()
	for {
		b := s.next()
		if b == nil || ctx.Err() != nil {
			break
		}
		p.st.Add(&b.st)
		ok := j.verify(b.tasks)
		b.tasks = b.tasks[:0]
		s.recycle(b)
		if !ok {
			break
		}
	}
	if p.stopped {
		return nil
	}
	return ctx.Err()
}

// segment names one segment of a serial scan: the seq-th in scan order, of
// chunk c against the group of length l — none when l is −1. last says it is
// its chunk's last: it ships the task that ends the chunk.
type segment struct {
	seq, c, l int
	last      bool
}

// maxLookups caps a serial join's lookup goroutines: min(GOMAXPROCS,
// maxLookups) of them, never more than there are segments. Two is the count
// that was measured (docs/perf/PR-38.md, on 2 vCPUs); past it, the one verify
// stage is the bottleneck on join-long, every further goroutine costs its
// lookupStage (about 4.6 KB) and one more waiter on the scan's cond, and no
// run shows that it pays. Raise it only with a measurement on more cores.
const maxLookups = 2

// noGroup is what scan.held records for a goroutine whose segment reads no
// group.
const noGroup = math.MaxInt

// scan is what the goroutines of a serial join share (pipe). Its lookup
// goroutines claim segments and batches from it and ship full batches
// through full; the verify stage takes them from full, in its own order
// (next), and gives them back (recycle). stopped says the verify stage is
// through or a lookup goroutine panicked; cancel is the join's ctx.Done()
// (nil when the ctx cannot be cancelled).
type scan struct {
	j       *blockJoin
	side    []string
	chunks  []span
	slide   func(l int)
	cancel  <-chan struct{}
	stopped atomic.Bool
	// full can hold every batch, so a send on it never blocks.
	full chan *taskBatch
	// pending holds what the verify stage took from full ahead of its turn.
	pending []*taskBatch

	mu   sync.Mutex
	cond sync.Cond // on mu: a segment's group built, a batch freed, the scan stopped
	// cur is the next segment to claim; cur.c is len(chunks) once there is
	// none.
	cur segment
	// The window has been slid to the lengths of the chunks before slid, so
	// that the groups up to top are built; sliding says a goroutine is
	// sliding it now.
	slid, top int
	sliding   bool
	// held[w] is the group the segment of lookup goroutine w reads, until its
	// lookups are through; noGroup when it reads none.
	held []int
	free []*taskBatch
	// head is the segment the verify stage is on; its goroutine alone may
	// take the last free batch, so that it always gets one.
	head    int
	running int   // lookup goroutines that have not returned
	err     error // of a panic; read once full is closed
}

// newScan returns the scan of j over side's chunks, with its batches free
// and a lookup goroutine to start per held entry: min(GOMAXPROCS,
// maxLookups) of them, never more than there are segments.
func newScan(j *blockJoin, cancel <-chan struct{}, side []string, chunks []span, slide func(l int)) *scan {
	s := &scan{j: j, side: side, chunks: chunks, slide: slide, cancel: cancel, top: -1}
	s.cond.L = &s.mu
	s.cur = segment{l: s.first(0)}
	workers, procs := 0, min(runtime.GOMAXPROCS(0), maxLookups)
	for g := s.cur; g.c < len(chunks) && workers < procs; g, _ = s.after(g) {
		workers++
	}
	s.held = make([]int, workers)
	for w := range s.held {
		s.held[w] = noGroup
	}
	s.running = workers
	s.full = make(chan *taskBatch, pipeBatches)
	if workers == 0 {
		close(s.full)
	}
	s.pending = make([]*taskBatch, 0, pipeBatches)
	s.free = make([]*taskBatch, pipeBatches)
	n := min(pipeBatchSize, max(len(j.p.ref), 1))
	bs, ts := make([]taskBatch, pipeBatches), make([]task, pipeBatches*n)
	for k := range bs {
		bs[k].tasks = ts[k*n : k*n : (k+1)*n]
		s.free[k] = &bs[k]
	}
	return s
}

// length returns the length of the strings of chunk c.
func (s *scan) length(c int) int { return len(s.side[s.chunks[c].lo]) }

// first returns the group of chunk c's first segment: −1 if its window has
// no group, or if c is past the last chunk.
func (s *scan) first(c int) int {
	if c == len(s.chunks) {
		return -1
	}
	return s.j.groupFrom(s.j.window(s.length(c)))
}

// after returns the segment that follows g, and whether g is its chunk's
// last.
func (s *scan) after(g segment) (segment, bool) {
	if g.l >= 0 {
		_, hi := s.j.window(s.length(g.c))
		if l := s.j.groupFrom(g.l+1, hi); l >= 0 {
			return segment{seq: g.seq + 1, c: g.c, l: l}, false
		}
	}
	return segment{seq: g.seq + 1, c: g.c + 1, l: s.first(g.c + 1)}, true
}

// work is a lookup goroutine of pipe: it claims segments until there are
// none, or the join stops, and ships each one's tasks.
func (k *lookupStage) work() {
	s := k.sc
	defer func() { s.leave(k.w, recover()) }()
	for {
		g, ok := s.claim(k.w)
		if !ok {
			return
		}
		c := s.chunks[g.c]
		k.seq = g.seq
		if g.l >= 0 && !k.lookup(s.side[c.lo:c.hi], c.lo, g.l) {
			return
		}
		s.release(k.w)
		if g.last && !k.push(task{id: int32(c.lo), rid: int32(c.hi)}) {
			return
		}
		if !k.ship(true) {
			return
		}
	}
}

// open is a serial join's tick: it reports whether the scan is still on —
// not stopped, and its ctx live. A ctx that cannot be cancelled costs it a
// nil compare.
func (s *scan) open() bool {
	if s.stopped.Load() {
		return false
	}
	if s.cancel != nil {
		select {
		case <-s.cancel:
			return false
		default:
		}
	}
	return true
}

// claim hands lookup goroutine w the next segment, once that segment's group
// is in the window; ok is false when there is none left or the scan is off.
func (s *scan) claim(w int) (g segment, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.c == len(s.chunks) || !s.open() {
		return g, false
	}
	g = s.cur
	s.cur, g.last = s.after(g)
	if g.l >= 0 {
		s.held[w] = g.l
	}
	s.advance()
	for g.l > s.top && s.open() {
		s.cond.Wait()
	}
	return g, s.open()
}

// release says lookup goroutine w is through with its segment's group.
func (s *scan) release(w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held[w] = noGroup
	s.advance()
}

// advance slides the window as far as it may go: to the length of the next
// chunk once every segment of the chunks before it is claimed and no
// goroutine still reads a group that slide releases. Called with mu held, it
// lets go of it while it slides.
func (s *scan) advance() {
	for !s.sliding && s.slid < len(s.chunks) && s.slid <= s.cur.c && s.open() {
		L := s.length(s.slid)
		lo, hi := s.j.window(L)
		for _, l := range s.held {
			if l < lo {
				return
			}
		}
		s.sliding = true
		v := s.unlocked(L)
		s.sliding = false
		if v != nil {
			s.fail(v)
			return
		}
		s.top = hi
		for s.slid < len(s.chunks) && s.length(s.slid) == L {
			s.slid++
		}
		s.cond.Broadcast()
	}
}

// unlocked slides the window to length L with mu released, and returns what
// slide panicked with, if anything.
func (s *scan) unlocked(L int) (v any) {
	s.mu.Unlock()
	defer s.mu.Lock()
	defer func() { v = recover() }()
	s.slide(L)
	return nil
}

// fail stops the scan on a panic, v, of one of its lookup goroutines; mu is
// held.
func (s *scan) fail(v any) {
	if s.err == nil {
		s.err = fmt.Errorf("core: join lookup panic: %v", v)
	}
	s.stopped.Store(true)
	s.cond.Broadcast()
}

// take returns the next free batch for segment seq, once there is one it may
// take; nil when the scan is off.
func (s *scan) take(seq int) *taskBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.open() && (len(s.free) == 0 || len(s.free) == 1 && seq != s.head) {
		s.cond.Wait()
	}
	if !s.open() {
		return nil
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return b
}

// leave is lookup goroutine w's last call: v is what it panicked with, if
// anything. The last to leave closes full.
func (s *scan) leave(w int, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v != nil {
		s.fail(v)
	}
	s.held[w] = noGroup
	if s.running--; s.running == 0 {
		close(s.full)
	}
	s.cond.Broadcast()
}

// next returns the verify stage's next batch: the next of segment head's,
// in the order its goroutine shipped them. It returns nil once every lookup
// goroutine is gone and the batch has not come.
func (s *scan) next() *taskBatch {
	for {
		for k, b := range s.pending {
			if b.seq == s.head {
				s.pending = append(s.pending[:k], s.pending[k+1:]...)
				return b
			}
		}
		b, ok := <-s.full
		if !ok {
			return nil
		}
		s.pending = append(s.pending, b)
	}
}

// recycle gives back b, which the verify stage is through with.
func (s *scan) recycle(b *taskBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, b)
	if b.end {
		s.head++
	}
	s.cond.Broadcast()
}

// stop is the verify stage's last call: the lookup goroutines are to return.
func (s *scan) stop() {
	s.stopped.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cond.Broadcast()
}
