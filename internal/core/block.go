package core

import (
	"fmt"
	"slices"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/partition"
	"passjoin/internal/verify"
)

// blockChunk is the most strings a join probes as one chunk — a run of
// consecutive strings of one length, the unit a parallel join hands its
// workers and the scope of a join's deduplication. Chunks from 64 strings to
// a whole length group measured level; 1024 keeps the state of one (the
// pairs it has settled) in cache and leaves a parallel join enough chunks to
// balance.
const blockChunk = 1024

// span is one chunk: the strings [lo, hi) of a side sorted by length, all
// of one length.
type span struct{ lo, hi int }

// chunksOf cuts a corpus sorted by length — off its per-length offsets —
// into chunks, in order.
func chunksOf(off []int) []span {
	n := 0
	for l := 0; l+1 < len(off); l++ {
		n += (off[l+1] - off[l] + blockChunk - 1) / blockChunk
	}
	out := make([]span, 0, n)
	for l := 0; l+1 < len(off); l++ {
		for lo := off[l]; lo < off[l+1]; lo += blockChunk {
			out = append(out, span{lo, min(lo+blockChunk, off[l+1])})
		}
	}
	return out
}

// blockJoin is the probe loop of every join, and the state of one worker of
// it: where a query's prober.probe takes one string through every table of
// its length window, a blockJoin takes a chunk of equal-length strings
// through one table at a time. The substrings Algorithm 1 selects are a
// function of the two lengths and the slot alone (§4.2: the multi-match
// window never looks at content — nor do the other three methods'), so all
// strings of a chunk put the same (l, i, pos) questions to the same inverted
// index L_l^i; asking each of them once for the whole chunk changes the
// order in which the lists are met and nothing else.
//
// The loop runs in two stages, cut at the signature filter. The lookup
// stage (lookup) resolves the lists and filters their candidates; the verify
// stage (verify) deduplicates and verifies the survivors — the task each
// survivor becomes names the pair and its alignment, nothing else — and
// emits. The cut is there because nothing before it may cross goroutines: a
// list aliases a table of the index, which a serial join's window clears and
// recycles once it slides past the table's group (index.Window). The verify
// stage reads only the corpus and the partition geometry, which outlive the
// scan. A serial join runs the stages on two goroutines (pipe); a stream
// join's worker runs both on its own, a batch of tasks at a time
// (probeBlock).
//
// The prober behind it keeps verifying: a join arms it with emit, to hear of
// every match, and with join, which sends its deduplication here (settled)
// instead of to the per-probe stamps a chunk's interleaved strings cannot
// share.
type blockJoin struct {
	p   *prober
	off []int // index.LengthOffsets of p.ref
	// self says the chunks are p.ref's own: string base+k is indexed under
	// that very id and pairs with the ids below it only.
	self bool
	// tick, when non-nil, runs after every resolved batch of lookups;
	// returning false abandons the join (a parallel join's consumer is gone).
	tick func() bool

	// The lookup stage's state. It fills out, and ships it when it is full:
	// through q when the stages run on two goroutines (pipe), to the verify
	// stage at once when they share one. cnt is where the stage counts: the
	// prober's stats when the stages share a goroutine, the batch's own when
	// they do not; nil when the join counts nothing.
	out  *taskBatch
	q    *queue
	cnt  *metrics.Stats
	sigs []uint64 // of an R≠S chunk's strings; a self join's are p.sig's
	res  index.BlockResolver

	// The verify stage's state. strs[k] is the probing string at position
	// base+k of its side — one chunk, or a whole side — and id the one in
	// hand.
	strs     []string
	base, id int
	settled  pairSet
	// whole collects the candidates of the whole-string verifiers, as
	// settled's keys; they are verified, string by string, once the chunk's
	// lookups are through.
	whole []uint64
}

// task is what crosses from a join's lookup stage to its verify stage: one
// candidate that passed the signature filter, found by the probing string
// at position id of its side with its substring at pos matching segment
// slot. slot is negated on the first task of a list — where an extension
// verifier takes up a new alignment, even if the last list had the same —
// and is 0 on the task that ends the chunk [id, rid).
type task struct {
	id, rid, slot, pos int32
}

// taskBatch is a batch of tasks, with what the lookup stage counted while it
// filled it when the stages run on two goroutines.
type taskBatch struct {
	tasks []task
	st    metrics.Stats
}

const (
	// taskBatchSize is the most tasks a batch holds: 16 KiB, so that the
	// batches in flight between the two stages of a serial join stay in
	// cache. A batch is no larger than the indexed corpus has strings, so
	// that a small join does not pay for a large one.
	taskBatchSize = 1024
	// pipeBatches is how many batches a serial join's stages pass between
	// them: one being filled, one being verified, and slack for the stage
	// that runs ahead.
	pipeBatches = 4
)

// newBlockJoin arms p for a join over the corpus it probes, off its offsets.
// The caller sets p.emit (and tick, if it wants one).
func newBlockJoin(p *prober, off []int, self bool) *blockJoin {
	j := &blockJoin{p: p, off: off, self: self}
	if !self {
		j.sigs = make([]uint64, blockChunk)
	}
	p.join = j
	return j
}

// cur returns the position of the string in hand in its sorted side: what
// an emit hook names the probing string of a match by.
func (j *blockJoin) cur() int { return j.id }

// key names the pair (string in hand, rid); never zero.
func (j *blockJoin) key(rid int32) uint64 {
	return uint64(j.id+1)<<32 | uint64(uint32(rid))
}

// probeBlock finds, for every string of strs — one chunk, beginning at
// position base of its side — the indexed strings within tau of it, and
// reports each to p.emit with cur set, running both stages on the calling
// goroutine. It reports false when the join is to stop: emit or tick said
// so.
func (j *blockJoin) probeBlock(strs []string, base int) bool {
	if j.out == nil {
		j.out = &taskBatch{tasks: make([]task, 0, min(taskBatchSize, max(len(j.p.ref), 1)))}
		j.cnt = j.p.st
	}
	j.strs, j.base = strs, base
	return j.lookup(strs, base) && j.ship()
}

// pipe runs a serial join's scan — the chunks of side, the probing strings
// sorted by length, each after slide has moved the index's window to the
// chunk's length — with the lookup stage on a goroutine of its own and the
// verify stage, emit included, on the caller's. The stages pass batches of
// tasks through a queue, full ones forward and verified ones back, so its
// pipeBatches batches are all the scan allocates for it. A batch carries the
// lookup stage's counts, which go to the join's stats when the verify stage
// takes it: a join stopped at its k-th pair has counted the same, whichever
// stage ran ahead. The scan returns once the lookup stage is gone — when
// emit stops the join or panics too — and reports a panic of that stage as
// an error.
func (j *blockJoin) pipe(side []string, chunks []span, slide func(l int)) (err error) {
	p := j.p
	q := newQueue(p.ref)
	j.q, j.tick = q, q.open
	j.take(<-q.free)
	j.strs, j.base = side, 0
	go func() {
		defer close(q.full)
		defer func() {
			if v := recover(); v != nil {
				q.err = fmt.Errorf("core: join lookup panic: %v", v)
			}
		}()
		for _, c := range chunks {
			slide(len(side[c.lo]))
			if !j.lookup(side[c.lo:c.hi], c.lo) {
				return
			}
		}
		q.full <- j.out
	}()
	defer func() {
		close(q.done)
		for range q.full {
		}
		if err == nil {
			err = q.err
		}
	}()
	for b := range q.full {
		p.st.Add(&b.st)
		b.st = metrics.Stats{}
		ok := j.verify(b.tasks)
		b.tasks = b.tasks[:0]
		q.free <- b
		if !ok {
			break
		}
	}
	return nil
}

// queue is what the two stages of a serial join share: its batches, in free
// (the lookup stage's to fill) or in full (the verify stage's to verify),
// and done, closed when the verify stage is through. Neither channel ever
// blocks a send, since each can hold every batch.
type queue struct {
	free, full chan *taskBatch
	done       chan struct{}
	err        error // a panic of the lookup stage; read once full is closed
}

// newQueue returns the queue of a serial join over the corpus ref, its
// batches in free.
func newQueue(ref []string) *queue {
	q := &queue{
		free: make(chan *taskBatch, pipeBatches),
		full: make(chan *taskBatch, pipeBatches),
		done: make(chan struct{}),
	}
	n := min(taskBatchSize, max(len(ref), 1))
	bs, ts := make([]taskBatch, pipeBatches), make([]task, pipeBatches*n)
	for k := range bs {
		bs[k].tasks = ts[k*n : k*n : (k+1)*n]
		q.free <- &bs[k]
	}
	return q
}

// open is the lookup stage's tick: it reports whether the verify stage is
// still there.
func (q *queue) open() bool {
	select {
	case <-q.done:
		return false
	default:
		return true
	}
}

// take makes b the batch the lookup stage fills.
func (j *blockJoin) take(b *taskBatch) {
	j.out = b
	if j.p.st != nil {
		j.cnt = &b.st
	}
}

// ship hands the full batch on to the verify stage and leaves an empty one
// in its place — through the queue when the stages run on two goroutines,
// by verifying it at once when they share one. It reports false when the
// join is to stop.
func (j *blockJoin) ship() bool {
	q := j.q
	if q == nil {
		ok := j.verify(j.out.tasks)
		j.out.tasks = j.out.tasks[:0]
		return ok
	}
	q.full <- j.out
	select {
	case b := <-q.free:
		j.take(b)
		return true
	case <-q.done:
		return false
	}
}

// push adds t to the batch being filled, shipping the batch if that fills
// it; it reports false when the join is to stop.
func (j *blockJoin) push(t task) bool {
	b := j.out
	b.tasks = append(b.tasks, t)
	return len(b.tasks) < cap(b.tasks) || j.ship()
}

// lookup is the lookup stage for one chunk: strs, beginning at position base
// of its side. It resolves every list the chunk's strings select and pushes
// the candidates on them that the signature filter lets through, then the
// task that ends the chunk. It reports false when the join is to stop.
//
// Each string meets its lists in Algorithm 1's order, (l, i, pos) ascending,
// exactly as if it had been probed alone, so what is verified, rejected and
// found — every counter of metrics.Stats — is what string-at-a-time probing
// gives. For a self join that includes the two rules of a scan that indexes
// each string after probing it, whether the index holds the whole corpus or
// a window of bulk-built groups: the first string of a length does not probe
// its own length's group, which such a scan has not created yet, and a list
// is cut at the string's own id — a list that begins at or past it is no
// lookup hit.
func (j *blockJoin) lookup(strs []string, base int) bool {
	p := j.p
	n, L, tau := len(strs), len(strs[0]), p.tau
	var sigs []uint64
	if j.self {
		sigs = p.sig[base : base+n]
	} else {
		sigs = j.sigs[:n]
		verify.Sigs(sigs, strs)
	}

	lmax := L
	if !j.self {
		// L+tau, which wraps at thresholds near math.MaxInt, or the longest
		// indexed string if that is shorter.
		lmax = min(L+min(tau, len(j.off)), len(j.off)-2)
	}
	for l := max(L-tau, index.FirstIndexed(j.off, tau)); l <= lmax; l++ {
		g := p.fz.Group(l)
		if g == nil {
			continue
		}
		own := j.self && l == L
		first := 0
		if own && base == j.off[L] {
			first = 1
		}
		for i := 1; i <= tau+1; i++ {
			pi, li := g.Seg(i)
			lo, hi := p.sel.WindowQ(L, l, tau, tau+1, i, pi, li)
			for pos := lo; pos <= hi; pos++ {
				for b := first; b < n; b += index.BlockBatchSize {
					batch := strs[b:min(b+index.BlockBatchSize, n)]
					if c := j.cnt; c != nil {
						c.SelectedSubstrings += int64(len(batch))
						c.Lookups += int64(len(batch))
					}
					j.res.Resolve(g, i, pos, batch)
					for _, h := range j.res.Hits() {
						lst := j.res.List(h)
						k := b + int(h)
						if own {
							lst = below(lst, int32(base+k))
						}
						if len(lst) > 0 && !j.filter(lst, sigs[k], int32(base+k), int32(i), int32(pos)) {
							return false
						}
					}
					if j.tick != nil && !j.tick() {
						return false
					}
				}
			}
		}
	}
	return j.push(task{id: int32(base), rid: int32(base + n)})
}

// filter counts lst, a list the probing string at position id found with its
// substring at pos matching segment slot, as a lookup hit, and pushes as
// tasks the candidates on it whose signatures are within 2τ of the string's,
// qsig (verify.SigDist, which one edit moves by at most two). It reports
// false when the join is to stop.
func (j *blockJoin) filter(lst []int32, qsig uint64, id, slot, pos int32) bool {
	if c := j.cnt; c != nil {
		c.LookupHits++
		c.Candidates += int64(len(lst))
	}
	sig, bound := j.p.sig, 2*j.p.tau
	at := -slot
	for _, rid := range lst {
		if verify.SigDist(sig[rid], qsig) > bound {
			if c := j.cnt; c != nil {
				c.SigRejects++
			}
			continue
		}
		if !j.push(task{id: id, rid: rid, slot: at, pos: pos}) {
			return false
		}
		at = slot
	}
	return true
}

// verify is the verify stage for a run of tasks: it deduplicates the pairs
// they name per chunk (settled), verifies them — at once, at the task's
// alignment, for the extension verifiers; at the chunk's end for the
// whole-string ones — and emits the matches. It reports false when emit
// said stop.
func (j *blockJoin) verify(ts []task) bool {
	p := j.p
	whole := p.wholeString()
	for _, t := range ts {
		j.id = int(t.id)
		switch {
		case t.slot == 0:
			if !j.endChunk(int(t.id), int(t.rid)) {
				return false
			}
		case whole:
			p.collect(t.rid)
		default:
			if t.slot < 0 {
				i, l := int(-t.slot), len(p.ref[t.rid])
				p.beginExtension(j.strs[j.id-j.base], i, int(t.pos), partition.SegPos(l, p.tau, i), partition.SegLen(l, p.tau, i))
			}
			if p.extend(t.rid); p.stopped {
				return false
			}
		}
	}
	return true
}

// endChunk finishes the chunk of the strings at positions [lo, hi) of their
// side once its lookups are through: the whole-string verifiers' candidates
// are verified, and the indexed strings too short to partition, inside the
// length window — one contiguous id range — are verified directly. It
// reports false when emit or tick said stop.
func (j *blockJoin) endChunk(lo, hi int) bool {
	p := j.p
	strs := j.strs[lo-j.base : hi-j.base]
	if !j.flushWhole() {
		return false
	}
	tau := p.tau
	first, end := offAt(j.off, len(strs[0])-tau), j.off[index.FirstIndexed(j.off, tau)]
	for k, s := range strs {
		last := end
		if j.self {
			last = min(end, lo+k)
		}
		if first >= last {
			continue
		}
		j.id = lo + k
		for rid := first; rid < last; rid++ {
			if p.verifyDirect(p.ref[rid], s) <= tau && !p.accept(int32(rid), -1) {
				return false
			}
		}
		if j.tick != nil && !j.tick() {
			return false
		}
	}
	if p.st != nil {
		p.st.Strings += int64(hi - lo)
	}
	j.settled.reset()
	return true
}

// below returns the postings of lst, which ascends, that are less than bound.
func below(lst []int32, bound int32) []int32 {
	n := 0
	for n < len(lst) && lst[n] < bound {
		n++
	}
	return lst[:n]
}

// flushWhole verifies the candidates the whole-string verifiers collected
// over the chunk, each pair once (collect settled it), string by string so
// that the query-side scratch — the Myers pattern — is built once per
// string, and by ascending candidate, which is by ascending length.
func (j *blockJoin) flushWhole() bool {
	p := j.p
	whole := j.whole
	j.whole = j.whole[:0]
	slices.Sort(whole)
	for _, key := range whole {
		j.id = int(key>>32) - 1
		s, rid := j.strs[j.id-j.base], int32(uint32(key))
		if p.vk == VerifyMyers {
			p.pat.Set(s) // a no-op for the string already set
		}
		if d := p.distWhole(rid, s); d <= p.qtau && !p.accept(rid, int32(d)) {
			return false
		}
	}
	return true
}

// pairSetCells is the size a pairSet starts at and returns to: 2048 pairs,
// several times what a chunk of either benchmark corpus settles.
const pairSetCells = 4096

// pairSet is the set of (string, candidate) pairs a chunk has settled — what
// prober.stamp is to a single probe string: verified, for the whole-string
// verifiers; accepted, for the extension verifiers. Open addressing over the
// pairs' 64-bit keys (blockJoin.key), zero for a free cell, at most half
// full.
type pairSet struct {
	cells []uint64
	n     int
}

func (s *pairSet) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> 32 & uint64(len(s.cells)-1))
}

func (s *pairSet) has(key uint64) bool {
	if s.n == 0 {
		return false
	}
	for c := s.home(key); ; c = (c + 1) & (len(s.cells) - 1) {
		switch s.cells[c] {
		case key:
			return true
		case 0:
			return false
		}
	}
}

// add inserts key, which the set does not hold.
func (s *pairSet) add(key uint64) {
	if 2*(s.n+1) > len(s.cells) {
		old := s.cells
		s.cells = make([]uint64, max(2*len(old), pairSetCells))
		for _, k := range old {
			if k != 0 {
				s.place(k)
			}
		}
	}
	s.place(key)
	s.n++
}

func (s *pairSet) place(key uint64) {
	c := s.home(key)
	for s.cells[c] != 0 {
		c = (c + 1) & (len(s.cells) - 1)
	}
	s.cells[c] = key
}

// reset empties the set. A table that one chunk of many matches grew is let
// go, so that the chunks after it do not each clear it.
func (s *pairSet) reset() {
	if len(s.cells) > pairSetCells {
		s.cells = nil
	} else if s.n > 0 {
		clear(s.cells)
	}
	s.n = 0
}
