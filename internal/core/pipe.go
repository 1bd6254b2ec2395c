package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"passjoin/internal/metrics"
)

// pipe runs a serial join's scan — the chunks of side, the probing strings
// sorted by length, against a window of length groups that slide(L) moves to
// a chunk length L — on up to maxWorkers goroutines: the caller's, and
// helpers. arm returns a worker: a block join over the window's index that
// counts into the Stats it is given (nil when the join counts nothing). The
// join counts into st and delivers its pairs to emit, on the caller's
// goroutine.
//
// The unit of work is a chunk. Each worker claims the next chunk in scan
// order and runs it whole with state of its own — prober, pairSet, shared
// rows, resolver and task batch: the lookups against each group of its
// window by ascending length, and the verification of what they find, a
// batch at a time (probeBlock). Deduplication is per chunk, so chunks are
// independent, and a chunk's task stream is the string-at-a-time scan's. A
// chunk's matches and its counts go to its slot, and the caller emits the
// slots in chunk order, between chunks of its own. Whatever the number of
// goroutines, the pairs come in the same order and every counter is the
// same: a join stopped at its k-th pair has counted all of the chunk that
// held it, and nothing of the chunks after it. A slot holds a chunk's
// matches until they are emitted: under the extension verifiers, the pairs
// its pairSet settled, and those of the strings too short to partition.
// Past maxBuffered matches waiting, no worker claims a chunk — the oldest
// chunk not yet emitted is then claimed, and is being verified or waits to
// be emitted — so that what a join holds is that bound and the chunks its
// workers are on, however dense the corpus.
//
// The window slides to a chunk length once every chunk before it is claimed
// and no worker still reads a group that the slide releases (held, advance),
// so that no more groups are ever live than the scan of §3.2 keeps; a
// worker slides it while the other looks up in the groups it keeps, and a
// worker waits only until the group it is to read next is in the window.
//
// A cancelled ctx stops the workers at their next tick; the scan then
// returns ctx.Err(), unless emit had stopped it. It returns once every
// helper is gone — when emit stops the join or panics too — and reports a
// panic of a worker, or of slide, as an error. counted is the number of
// chunks whose counts went to st.
func (pl *joinPlan) pipe(ctx context.Context, st *metrics.Stats, arm func(*metrics.Stats) *blockJoin, slide func(l int), emit func(Pair) bool) (counted int, err error) {
	var wst [maxWorkers]metrics.Stats
	counts := func(w int) *metrics.Stats {
		if st == nil {
			return nil
		}
		return &wst[w]
	}
	j := arm(counts(0))
	s := newScan(j, ctx.Done(), pl.side, pl.chunks, slide)
	s.enlist(0, j)
	for w := range s.helpers {
		go s.help(w+1, func() *blockJoin { return arm(counts(w + 1)) })
	}
	defer func() {
		s.stop()
		if err == nil {
			err = s.err
		}
	}()
	for {
		done, next := s.turn()
		if next != nil {
			s.run(0, j, next)
			continue
		}
		if done == nil {
			return counted, ctx.Err()
		}
		st.Add(&done.st)
		counted++
		for _, b := range done.pairs {
			for _, key := range b {
				if !emit(pl.pair(unkey(key))) {
					return counted, nil
				}
			}
		}
		s.retire(done)
	}
}

// chunkSlot holds chunk c from a worker's claim until the caller emits it:
// its matches, as blockJoin.key, in the order they were found — in blocks of
// slotBlock, which the scan hands out and takes back (block, retire), so
// that no buffer is copied as it grows or kept by one slot — and all it
// counted, once the worker is done.
type chunkSlot struct {
	c     int
	pairs [][]uint64
	st    metrics.Stats
	done  bool
}

// len returns the number of matches in sl.
func (sl *chunkSlot) len() int {
	n := len(sl.pairs)
	if n == 0 {
		return 0
	}
	return (n-1)*slotBlock + len(sl.pairs[n-1])
}

const (
	// maxWorkers caps a serial join's workers: min(GOMAXPROCS, maxWorkers)
	// of them — the caller and a helper — never more than there are chunks.
	// Two is the count that was measured (docs/perf/PR-39.md, on 2 vCPUs);
	// the helper costs its own prober, pairSet, shared rows, resolver and
	// task batch. Raise it only with a measurement on more cores.
	maxWorkers = 2
	// slotRing is how many chunks may be claimed and not yet emitted: the
	// helper runs up to seven chunks ahead of the oldest one the caller has
	// yet to emit, so that a slow chunk on one worker, or the caller's
	// emitting, seldom stalls the other. In back-to-back joins of the
	// benchmark corpora (-cpu 2) a ring of four kept the helper waiting for
	// a slot 15–21 ms a join, eight 1–4 ms (docs/perf/PR-39.md).
	slotRing = 8
	// slotBlock is how many matches a block of a slot holds: 1 KiB, which
	// a chunk of the benchmark corpora (470 matches at most) fills a few
	// times over, and which a sparse chunk does not waste.
	slotBlock = 128
	// maxBuffered bounds the matches of verified chunks that wait to be
	// emitted: past it no worker claims a chunk until the caller has emitted
	// them, so that a corpus of many near-duplicates does not have the
	// helper buffer chunk after chunk ahead of the caller, and the scan
	// keeps no more blocks than it holds (2 MiB).
	maxBuffered = 1 << 18
)

// noGroup is what scan.held records for a worker that reads no group.
const noGroup = math.MaxInt

// scan is what the workers of a serial join share (pipe): they claim chunks
// and slots from it, wait on it for the window to reach their groups, and
// hand it their verified chunks, which the caller emits (turn, retire).
// stopped says the scan is through or a worker panicked; cancel is the
// join's ctx.Done() (nil when the ctx cannot be cancelled).
type scan struct {
	j       *blockJoin
	side    []string
	chunks  []span
	slide   func(l int)
	cancel  <-chan struct{}
	stopped atomic.Bool

	mu sync.Mutex
	// wake (on mu) wakes the workers: the window slid, a chunk verified or
	// emitted, a helper returned, the scan stopped.
	wake sync.Cond
	// next is the next chunk to claim.
	next int
	// The window has been slid to the lengths of the chunks before slid, so
	// that the groups up to top are built; sliding says a worker is sliding
	// it now.
	slid, top int
	sliding   bool
	// held[w] is the least group worker w may still read, noGroup when it
	// reads none: from its claim of a chunk until the chunk's lookups are
	// through.
	held [maxWorkers]int
	// ring[c%slotRing] is the slot of chunk c from its claim until it is
	// emitted: the chunks [emitted, next) hold theirs.
	ring    [slotRing]chunkSlot
	emitted int
	// buffered is the matches of the verified chunks not yet emitted, and
	// free the blocks that emitted chunks gave back.
	buffered int
	free     [][]uint64
	helpers  int   // helpers that have not returned
	err      error // of a panic; read once every helper is gone
}

// newScan returns the scan of j over side's chunks, with helpers to start:
// one less than min(GOMAXPROCS, maxWorkers), never more than there are
// chunks.
func newScan(j *blockJoin, cancel <-chan struct{}, side []string, chunks []span, slide func(l int)) *scan {
	s := &scan{j: j, side: side, chunks: chunks, slide: slide, cancel: cancel, top: -1}
	s.wake.L = &s.mu
	for w := range s.held {
		s.held[w] = noGroup
	}
	s.helpers = max(min(runtime.GOMAXPROCS(0), maxWorkers, len(chunks))-1, 0)
	return s
}

// enlist makes v worker w of s: it stops with the scan, reads a group only
// once the window reaches it, and puts its matches in the slot of the chunk
// it holds.
func (s *scan) enlist(w int, v *blockJoin) *blockJoin {
	v.tick = s.open
	v.reach = func(l int) bool { return s.reach(w, l) }
	v.p.emit = func(rid, _ int32) bool {
		sl := v.slot
		if n := len(sl.pairs); n == 0 || len(sl.pairs[n-1]) == slotBlock {
			sl.pairs = append(sl.pairs, s.block())
		}
		b := &sl.pairs[len(sl.pairs)-1]
		*b = append(*b, v.key(rid))
		return true
	}
	return v
}

// length returns the length of the strings of chunk c.
func (s *scan) length(c int) int { return len(s.side[s.chunks[c].lo]) }

// help is helper w of pipe: it claims chunks and runs them until there are
// none, or the join stops. It arms its worker at its first chunk, so that a
// join the caller runs alone does not pay for it.
func (s *scan) help(w int, arm func() *blockJoin) {
	defer s.helped()
	var v *blockJoin
	for {
		sl := s.await(w)
		if sl == nil {
			return
		}
		if v == nil {
			v = s.enlist(w, arm())
		}
		if !s.run(w, v, sl) {
			return
		}
	}
}

// run is worker w's turn at the chunk of slot sl: v looks it up and
// verifies it into sl, which is then done. It reports false when the scan
// went off first. A panic of the worker stops the scan and comes back from
// it as an error.
func (s *scan) run(w int, v *blockJoin, sl *chunkSlot) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.fail(r)
			ok = false
		}
	}()
	v.slot = sl
	c := s.chunks[sl.c]
	if !v.probeBlock(s.side[c.lo:c.hi], c.lo) {
		return false
	}
	sl.st.Add(v.p.st)
	v.p.st.Reset()
	s.mu.Lock()
	defer s.mu.Unlock()
	sl.done = true
	s.buffered += sl.len()
	s.wake.Broadcast()
	return true
}

// block returns an empty block for a slot's matches: one an emitted chunk
// gave back, if there is one.
func (s *scan) block() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	return make([]uint64, 0, slotBlock)
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

// claim hands worker w the slot of the next chunk, unless every chunk is
// claimed, the ring has no room, or more than maxBuffered matches wait
// (nil); mu is held.
func (s *scan) claim(w int) *chunkSlot {
	c := s.next
	if c == len(s.chunks) || c >= s.emitted+slotRing || s.buffered > maxBuffered {
		return nil
	}
	s.next++
	sl := &s.ring[c%slotRing]
	sl.c = c
	if l := s.j.groupFrom(s.j.window(s.length(c))); l >= 0 {
		s.held[w] = l
	}
	s.advance()
	return sl
}

// reach says worker w is to read group l next, or — l is noGroup — no
// group, and returns once the window holds l; false when the scan is off.
func (s *scan) reach(w, l int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held[w] = l
	s.advance()
	for l != noGroup && l > s.top && s.open() {
		s.wake.Wait()
	}
	return s.open()
}

// advance slides the window as far as it may go: to the length of the next
// chunk once every chunk before it is claimed and no worker still reads a
// group that slide releases. Called with mu held, it lets go of it while it
// slides.
func (s *scan) advance() {
	for !s.sliding && s.slid < len(s.chunks) && s.slid <= s.next && s.open() {
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
		s.wake.Broadcast()
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

// fail stops the scan on a panic, v, of a worker or of slide; mu is held.
func (s *scan) fail(v any) {
	if s.err == nil {
		s.err = fmt.Errorf("core: join worker panic: %v", v)
	}
	s.stopped.Store(true)
	s.wake.Broadcast()
}

// await hands helper w the slot of its next chunk, once the ring has room
// for it; nil when every chunk is claimed or the scan is off.
func (s *scan) await(w int) *chunkSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.open() && s.next < len(s.chunks) {
		if sl := s.claim(w); sl != nil {
			return sl
		}
		s.wake.Wait()
	}
	return nil
}

// turn hands the caller its next piece of work: the slot of the oldest
// chunk not yet emitted, once a worker is done with it, to emit (done);
// else that of the next chunk to run, once the ring has room for it (next).
// Both are nil when every chunk is emitted or the scan is off.
func (s *scan) turn() (done, next *chunkSlot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.open() && s.emitted < len(s.chunks) {
		if sl := &s.ring[s.emitted%slotRing]; s.emitted < s.next && sl.done {
			return sl, nil
		}
		if sl := s.claim(0); sl != nil {
			return nil, sl
		}
		s.wake.Wait()
	}
	return nil, nil
}

// retire gives back sl, the slot of the oldest chunk, which the caller has
// emitted.
func (s *scan) retire(sl *chunkSlot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buffered -= sl.len()
	for _, b := range sl.pairs {
		if len(s.free) < maxBuffered/slotBlock {
			s.free = append(s.free, b[:0])
		}
	}
	clear(sl.pairs)
	sl.pairs, sl.st, sl.done = sl.pairs[:0], metrics.Stats{}, false
	s.emitted++
	s.wake.Broadcast()
}

// helped is a helper's last call.
func (s *scan) helped() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.helpers--
	s.wake.Broadcast()
}

// stop is the caller's last call: it stops the scan, and returns once every
// helper is gone.
func (s *scan) stop() {
	s.stopped.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wake.Broadcast()
	for s.helpers > 0 {
		s.wake.Wait()
	}
}
