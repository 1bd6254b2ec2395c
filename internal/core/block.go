package core

import (
	"slices"

	"passjoin/internal/index"
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
// its length window, probeBlock takes a chunk of equal-length strings
// through one table at a time. The substrings Algorithm 1 selects are a
// function of the two lengths and the slot alone (§4.2: the multi-match
// window never looks at content — nor do the other three methods'), so all
// strings of a chunk put the same (l, i, pos) questions to the same inverted
// index L_l^i; asking each of them once for the whole chunk changes the
// order in which the lists are met and nothing else.
//
// The prober behind it keeps verifying: a join arms it with emit, to hear of
// every match, and with join, which sends its deduplication here (settled)
// instead of to the per-probe stamps a chunk's interleaved strings cannot
// share. Single-goroutine state.
type blockJoin struct {
	p   *prober
	off []int // index.LengthOffsets of p.ref
	// self says the chunks are p.ref's own: string base+k is indexed under
	// that very id and pairs with the ids below it only.
	self bool
	// tick, when non-nil, runs after every resolved batch; returning false
	// abandons the join (a parallel join's consumer is gone).
	tick func() bool

	res index.BlockResolver
	// base is where the chunk in hand begins in its (sorted) side and k the
	// string in hand within the chunk.
	base, k int
	sigs    []uint64 // of an R≠S chunk's strings; a self join's are p.sig's
	settled pairSet
	// whole collects the candidates of the whole-string verifiers, as
	// settled's keys; they are verified, string by string, once the chunk's
	// lookups are through.
	whole []uint64
}

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
func (j *blockJoin) cur() int { return j.base + j.k }

// key names the pair (string in hand, rid) within the chunk; never zero.
func (j *blockJoin) key(rid int32) uint64 {
	return uint64(j.k+1)<<32 | uint64(uint32(rid))
}

// probeBlock finds, for every string of strs — one chunk, beginning at
// position base of its side — the indexed strings within tau of it, and
// reports each to p.emit with k set. It reports false when the join is to
// stop: emit or tick said so.
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
func (j *blockJoin) probeBlock(strs []string, base int) bool {
	p := j.p
	n, L, tau := len(strs), len(strs[0]), p.tau
	j.base = base
	var sigs []uint64
	if j.self {
		sigs = p.sig[base : base+n]
	} else {
		sigs = j.sigs[:n]
		verify.Sigs(sigs, strs)
	}
	j.settled.reset()

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
					if p.st != nil {
						p.st.SelectedSubstrings += int64(len(batch))
						p.st.Lookups += int64(len(batch))
					}
					j.res.Resolve(g, i, pos, batch)
					for _, h := range j.res.Hits() {
						lst := j.res.List(h)
						j.k = b + int(h)
						if own {
							lst = below(lst, int32(base+j.k))
						}
						if !p.isHit(lst) {
							continue
						}
						p.qsig = sigs[j.k]
						if p.handleList(strs[j.k], lst, i, pos, pi, li); p.stopped {
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
	if !j.flushWhole(strs) {
		return false
	}

	// The indexed side's strings too short to partition, inside the length
	// window — one contiguous id range — are verified directly.
	lo, end := offAt(j.off, L-tau), j.off[index.FirstIndexed(j.off, tau)]
	for k, s := range strs {
		hi := end
		if j.self {
			hi = min(end, base+k)
		}
		if lo >= hi {
			continue
		}
		j.k = k
		for rid := lo; rid < hi; rid++ {
			if p.verifyDirect(p.ref[rid], s) <= tau && !p.accept(int32(rid), -1) {
				return false
			}
		}
		if j.tick != nil && !j.tick() {
			return false
		}
	}
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
// over the chunk, each pair once (collectWhole settled it), string by string
// so that the query-side scratch — the Myers pattern — is built once per
// string, and by ascending candidate, which is by ascending length.
func (j *blockJoin) flushWhole(strs []string) bool {
	p := j.p
	whole := j.whole
	j.whole = j.whole[:0]
	slices.Sort(whole)
	for _, key := range whole {
		j.k = int(key>>32) - 1
		s, rid := strs[j.k], int32(uint32(key))
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
