package core

import (
	"slices"

	"passjoin/internal/index"
	"passjoin/internal/partition"
	"passjoin/internal/verify"
)

// blockChunk is the most strings a join probes as one chunk — a run of
// consecutive strings of one length, the unit a join hands its workers and
// the scope of its deduplication. Chunks from 64 strings to a whole length
// group measured level; 1024 keeps the state of one (the pairs it has
// settled) in cache and leaves a join's workers enough chunks to balance.
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
// stage (lookup) resolves the lists and filters their candidates; the
// verify stage (verify) deduplicates and verifies the survivors — the task
// each survivor becomes names the pair and its alignment, nothing else — and
// emits, a batch of tasks at a time, on the same goroutine (probeBlock). A
// task outlives the list it came from: a list aliases a table of the index,
// which a join's window clears and recycles once it slides past the
// table's group (index.Window), while the verify stage reads only the corpus
// and the partition geometry, which outlive the scan. Every join runs whole
// chunks on each of its workers this way, the caller and its helpers
// sharing the window (pipe).
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
	// returning false abandons the join (its consumer is gone, or its ctx
	// cancelled).
	tick func() bool
	// reach, when non-nil, runs before the lookups in each group of a
	// chunk (probeBlock): the join's window is then still to reach the
	// group.
	reach func(l int) bool

	// The lookup stage's state: out is the batch of tasks being filled,
	// which goes to the verify stage when it is full and at the end of the
	// chunk; sigs, for an R≠S join, the signatures of the chunk at position
	// sigsAt of its side.
	out    []task
	sigs   []uint64
	sigsAt int
	res    index.BlockResolver

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
	// slot, for a worker of a join (pipe), is where the chunk in hand
	// puts its matches.
	slot *chunkSlot
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

// pipeBatchSize is the most tasks a join worker verifies at a time (pipe):
// 4 KiB, of which a join holds one per worker. A batch is no larger than the
// indexed corpus has strings, so that a small join does not pay for a large
// one.
const pipeBatchSize = 256

// newBlockJoin arms p for a join over the corpus it probes, off its offsets.
// The caller sets p.emit (and tick, if it wants one).
func newBlockJoin(p *prober, off []int, self bool) *blockJoin {
	j := &blockJoin{p: p, off: off, self: self, sigsAt: -1}
	if !self {
		j.sigs = make([]uint64, blockChunk)
	}
	j.out = make([]task, 0, min(pipeBatchSize, max(len(p.ref), 1)))
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

// unkey returns the pair key names: the probing string's position in its
// side, and the indexed string's id.
func unkey(key uint64) (cur int, rid int32) {
	return int(key>>32) - 1, int32(uint32(key))
}

// window returns the lengths [lo, hi] of the groups that probing strings of
// length L look up: those at least τ+1 long (FirstIndexed) in [L−τ, L] for a
// self join, and in [L−τ, L+τ] for an R≠S one, cut at the longest indexed
// string.
func (j *blockJoin) window(L int) (lo, hi int) {
	tau := j.p.tau
	lo, hi = max(L-tau, index.FirstIndexed(j.off, tau)), L
	if !j.self {
		// L+tau wraps at thresholds near math.MaxInt.
		hi = min(L+min(tau, len(j.off)), len(j.off)-2)
	}
	return lo, hi
}

// groupFrom returns the least length in [l, hi] with strings indexed, or −1
// if there is none.
func (j *blockJoin) groupFrom(l, hi int) int {
	for ; l <= hi; l++ {
		if j.off[l+1] > j.off[l] {
			return l
		}
	}
	return -1
}

// probeBlock finds, for every string of strs — one chunk, beginning at
// position base of its side — the indexed strings within tau of it, and
// reports each to p.emit with cur set. It runs the lookup stage over the
// chunk's groups by ascending length, and the verify stage on every batch
// the lookups fill and on the one that ends the chunk. Before the lookups in
// a group it calls reach, if set, with the group's length, and once more
// with noGroup when the chunk's lookups are through. It reports false when
// the join is to stop: emit, tick or reach said so.
func (j *blockJoin) probeBlock(strs []string, base int) bool {
	j.strs, j.base = strs, base
	lo, hi := j.window(len(strs[0]))
	for l := j.groupFrom(lo, hi); l >= 0; l = j.groupFrom(l+1, hi) {
		if j.reach != nil && !j.reach(l) || !j.lookup(strs, base, l) {
			return false
		}
	}
	if j.reach != nil && !j.reach(noGroup) {
		return false
	}
	return j.push(task{id: int32(base), rid: int32(base + len(strs))}) && j.ship()
}

// ship hands the batch being filled to the verify stage; it reports false
// when the join is to stop.
func (j *blockJoin) ship() bool {
	ok := j.verify(j.out)
	j.out = j.out[:0]
	return ok
}

// push adds t to the batch being filled, shipping the batch if that fills
// it; it reports false when the join is to stop.
func (j *blockJoin) push(t task) bool {
	j.out = append(j.out, t)
	return len(j.out) < cap(j.out) || j.ship()
}

// sigsOf returns the signatures of strs, the chunk at position base of its
// side.
func (j *blockJoin) sigsOf(strs []string, base int) []uint64 {
	if j.self {
		return j.p.sig[base : base+len(strs)]
	}
	sigs := j.sigs[:len(strs)]
	if j.sigsAt != base {
		verify.Sigs(sigs, strs)
		j.sigsAt = base
	}
	return sigs
}

// lookup is the lookup stage for one chunk — strs, beginning at position
// base of its side — against the group of length l: it resolves every list
// the chunk's strings select there and pushes the candidates on them that
// the signature filter lets through. It reports false when the join is to
// stop. The task that ends the chunk is its caller's to push, once the
// chunk's last group is through.
//
// Run over a chunk's groups by ascending length, it meets each string's
// lists in Algorithm 1's order, (l, i, pos) ascending, exactly as if the
// string had been probed alone, so what is verified, rejected and found —
// every counter of metrics.Stats — is what string-at-a-time probing gives.
// For a self join that includes the two rules of a scan that indexes each
// string after probing it, whether the index holds the whole corpus or a
// window of bulk-built groups: the first string of a length does not probe
// its own length's group, which such a scan has not created yet, and a list
// is cut at the string's own id — a list that begins at or past it is no
// lookup hit.
func (j *blockJoin) lookup(strs []string, base, l int) bool {
	p := j.p
	g := p.fz.Group(l)
	if g == nil {
		return true
	}
	n, L, tau := len(strs), len(strs[0]), p.tau
	sigs := j.sigsOf(strs, base)
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
				if c := p.st; c != nil {
					c.SelectedSubstrings += int64(len(batch))
					c.Lookups += int64(len(batch))
				}
				j.res.Resolve(g, i, pos, batch)
				for _, h := range j.res.Hits() {
					lst := j.res.List(h)
					at := b + int(h)
					if own {
						lst = below(lst, int32(base+at))
					}
					if len(lst) > 0 && !j.filter(lst, sigs[at], int32(base+at), int32(i), int32(pos)) {
						return false
					}
				}
				if j.tick != nil && !j.tick() {
					return false
				}
			}
		}
	}
	return true
}

// filter counts lst, a list the probing string at position id found with its
// substring at pos matching segment slot, as a lookup hit, and pushes as
// tasks the candidates on it whose signatures are within 2τ of the string's,
// qsig (verify.SigDist, which one edit moves by at most two). It reports
// false when the join is to stop.
func (j *blockJoin) filter(lst []int32, qsig uint64, id, slot, pos int32) bool {
	p := j.p
	if c := p.st; c != nil {
		c.LookupHits++
		c.Candidates += int64(len(lst))
	}
	sig, bound := p.sig, 2*p.tau
	at := -slot
	for _, rid := range lst {
		if verify.SigDist(sig[rid], qsig) > bound {
			if c := p.st; c != nil {
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
		var rid int32
		j.id, rid = unkey(key)
		s := j.strs[j.id-j.base]
		if p.vk == VerifyMyers {
			p.pat.Set(s) // a no-op for the string already set
		}
		if d := p.distWhole(rid, s); d <= p.qtau && !p.accept(rid, int32(d)) {
			return false
		}
	}
	return true
}

// pairSetCells is the size a pairSet starts at: 512 pairs, more than a
// chunk of either benchmark corpus settles (470 at most). A set that a chunk
// of many matches grew is kept up to pairSetKeep cells, 2048 pairs.
const (
	pairSetCells = 1024
	pairSetKeep  = 4096
)

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
	if len(s.cells) > pairSetKeep {
		s.cells = nil
	} else if s.n > 0 {
		clear(s.cells)
	}
	s.n = 0
}
