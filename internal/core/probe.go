package core

import (
	"math"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/obs"
	"passjoin/internal/partition"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// prober owns the per-scan state of one matcher or one join worker: the
// segment index being probed, the verifier scratch space, and the
// deduplication stamps. The corpus (ref) and its signatures (sig) are
// shared, read-only. It is single-goroutine state: every worker of a join
// (pipe) has a prober of its own.
//
// Exactly one of idx (the mutable index of an unsealed Matcher) and fz (the
// frozen index of everything else: sealed matchers and every join) is
// non-nil; probe dispatches on which. A query is one probe; a join never
// calls probe — its loop is blockJoin's, which does handleList's work in two
// stages split at the signature filter, with collect and extend as the
// second.
type prober struct {
	tau int
	// qtau is the per-probe threshold, distinct from the partition
	// threshold tau: the index is partitioned into tau+1 segments, but a
	// probe may ask for matches within any smaller budget. Selection
	// windows and verification thresholds use qtau; segment geometry
	// (positions, lengths, slot count) always uses tau. Callers set it
	// before each probe; the constructor defaults it to tau.
	qtau int
	sel  selection.Method
	vk   VerifyKind
	st   *metrics.Stats

	// trace, when non-nil, records per-phase wall time and counters for
	// the current probe. Every hook on the frozen path is guarded by an
	// explicit nil check at the call site, so the untraced path pays only
	// predictable branches — no clock reads, no calls.
	trace *obs.QueryTrace

	idx *index.Index
	fz  *index.Frozen
	ref []string // indexed strings by id

	// sig holds verify.SigOf of every indexed string, parallel to ref; qsig
	// is the probe string's. A posting whose signature is further than
	// 2·qtau from qsig (verify.SigDist, which one edit moves by at most two)
	// cannot be within qtau, so it is dropped before its stamp or string is
	// loaded.
	sig  []uint64
	qsig uint64

	ver        verify.Verifier
	incL, incR verify.Incremental
	ext        extension // of the list in hand, for the extension verifiers

	// pat is the query-side bit-parallel profile, built once per probe and
	// reused across the whole candidate set (the per-pair Peq rebuild it
	// replaces was the largest verification constant for word-sized
	// strings). Valid whenever patSet.
	pat    verify.Pattern
	patSet bool

	// batch collects the whole-string verifiers' candidate ids for the
	// current probe; they are verified in one pass after the probe loops
	// finish. The probe walks length groups in ascending order, so the
	// batch arrives sorted by candidate length — runs of equal length keep
	// the banded kernels' geometry (and the branchy prefix/suffix paths)
	// predictable without an explicit sort. Emission order is collection
	// order. Reused across probes.
	batch []int32

	// stamp[rid] == epoch marks candidate rid as settled for the current
	// probe: verified, for the whole-string verifiers (the verdict does not
	// depend on the alignment); accepted, for the extension verifiers (a
	// rejected pair must be retried at other alignments). probe claims a
	// fresh epoch per call and sizes stamp to ref on demand, so a prober
	// that never probes — a join's — holds no stamps, and a zero stamp
	// never equals a live epoch (>= 1).
	stamp []int32
	epoch int32

	// join, when non-nil, is the join this prober verifies for: the strings
	// of a chunk meet their lists interleaved, so what is settled is kept
	// per (string, candidate) there, not in stamp (see settled).
	join *blockJoin

	// lookups is the batch of index lookups in flight (probeFrozen). selected
	// is the number of substrings the current probe has selected so far,
	// reached[k] what it was when the batch's k-th lookup was added — its
	// slot's included — and counted how many the counters have seen (drain).
	lookups           index.ProbeBatch
	reached           [index.ProbeBatchSize]int64
	selected, counted int64

	// needDist asks the verifiers to record each accepted candidate's exact
	// edit distance in dists (aligned with hits). Whole-string verifiers get
	// it for free; the extension path pays one extra banded DP per accepted
	// pair, so join paths that only need pairs leave this off.
	needDist bool

	// hits collects accepted candidate ids for the current query; dists the
	// matching distances when needDist is set.
	hits  []int32
	dists []int32

	// emit, when non-nil, receives each accepted candidate immediately
	// instead of having it collected into hits — the streaming query path.
	// Returning false sets stopped and abandons the rest of the probe.
	// Distances passed to emit are exact only when needDist is set.
	emit    func(Hit) bool
	stopped bool

	// limit, when > 0, caps the current query's hits: accept sets stopped
	// at the limit-th. found counts the hits accepted since probe began.
	limit, found int
}

func newProber(tau int, sel selection.Method, vk VerifyKind, st *metrics.Stats, idx *index.Index, fz *index.Frozen, ref []string, sig []uint64) *prober {
	p := &prober{
		tau:  tau,
		qtau: tau,
		sel:  sel,
		vk:   vk,
		st:   st,
		idx:  idx,
		fz:   fz,
		ref:  ref,
		sig:  sig,
	}
	p.ver.Stats = st
	p.incL.Stats = st
	p.incR.Stats = st
	return p
}

// nextEpoch invalidates every stamp of the previous probe and makes room
// for ids indexed since. Before the epoch counter would overflow, the
// stamps are zeroed and the count restarts: a long-lived pooled prober
// must not meet a stamp left by a probe 2³¹ queries ago.
func (p *prober) nextEpoch() {
	if p.epoch == math.MaxInt32 {
		clear(p.stamp)
		p.epoch = 0
	}
	p.epoch++
	if n := len(p.ref) - len(p.stamp); n > 0 {
		p.stamp = append(p.stamp, make([]int32, n)...)
	}
}

// probe finds all indexed strings with lengths in [lmin, lmax] within
// p.qtau of s and records their ids in p.hits (or streams them to p.emit).
// Callers derive lmin/lmax from the same threshold they set qtau to; the
// partition geometry — segment positions, lengths, and the tau+1 slot
// count — always follows the build threshold p.tau, which is what lets one
// index answer any query budget <= tau.
func (p *prober) probe(s string, lmin, lmax int) {
	p.hits = p.hits[:0]
	p.dists = p.dists[:0]
	p.stopped = false
	p.found = 0
	p.batch = p.batch[:0]
	p.nextEpoch()
	p.qsig = verify.SigOf(s)
	// The pattern is needed by the Myers whole-string mode and by the
	// extension modes' exact-distance recovery; building it here makes it
	// a once-per-probe cost no matter how many candidates follow.
	p.patSet = p.vk == VerifyMyers || p.needDist
	if p.patSet {
		p.pat.Set(s)
	}
	if p.tau >= math.MaxInt-len(s) {
		// The caller's len(s)+tau has wrapped, as tau+1 would at MaxInt. A
		// string is indexed only if it is longer than tau and none can be
		// that long, so there is no group to visit.
		return
	}
	lmin = max(lmin, p.tau+1)
	if p.fz != nil {
		p.probeFrozen(s, lmin, lmax)
	} else {
		p.probeMap(s, lmin, lmax)
	}
	if !p.stopped {
		p.flushBatch(s)
	}
}

// probeFrozen is the probe loop over the frozen index: it enumerates the
// selected substrings (l, i, pos) in Algorithm 1's order into the lookup
// batch, resolves the batch whenever it is full and once more at the end,
// and hands the lists to handleList in enumeration order — so the string
// meets its lists exactly as if each lookup had been finished before the
// next began, while the cache misses of up to a batch of them overlap. A
// traced probe is in PhaseSelect here and leaves it only inside drain.
func (p *prober) probeFrozen(s string, lmin, lmax int) {
	b := &p.lookups
	b.Reset() // a probe that unwound (a panicking consumer) left its batch behind
	p.selected, p.counted = 0, 0
	if p.trace != nil {
		p.trace.Begin(obs.PhaseSelect)
	}
	for l := lmin; l <= lmax; l++ {
		fg := p.fz.Group(l)
		if fg == nil {
			continue
		}
		for i := 1; i <= p.tau+1; i++ {
			pi, li := fg.Seg(i)
			lo, hi := p.sel.WindowQ(len(s), l, p.qtau, p.tau+1, i, pi, li)
			if hi < lo {
				continue
			}
			p.selected += int64(hi - lo + 1)
			for pos := lo; pos <= hi; pos++ {
				p.reached[b.Len()] = p.selected
				if b.Add(fg, i, pos) && !p.drain(s) {
					return
				}
			}
		}
	}
	if p.drain(s) && p.trace != nil {
		p.trace.End(obs.PhaseSelect)
	}
}

// drain resolves the lookup batch and consumes its hits in the order they
// were added, leaving the batch empty; it reports false when the emit
// consumer stopped the probe. The substrings selected are counted as the
// probe reaches their slot — up to the slot of the hit in hand, and all of
// them once the batch is through — so a probe that stops early has counted
// the slots it reached and no other, whatever else its batch had resolved.
// A traced probe spends the Resolve in PhaseProbe and the consumption in
// the verifier's phase, one bracket each per batch, and is back in
// PhaseSelect afterwards unless it stopped.
func (p *prober) drain(s string) bool {
	b := &p.lookups
	if p.trace != nil {
		p.trace.End(obs.PhaseSelect)
		p.trace.Begin(obs.PhaseProbe)
	}
	b.Resolve(s)
	if p.trace != nil {
		p.trace.End(obs.PhaseProbe)
		p.trace.Begin(p.listPhase())
	}
	for _, k := range b.Hits() {
		p.countSlots(p.reached[k])
		if g, i, pos, lst := b.At(int(k)); p.isHit(lst) {
			pi, li := g.Seg(i)
			if p.handleList(s, lst, i, pos, pi, li); p.stopped {
				break
			}
		}
	}
	if !p.stopped {
		p.countSlots(p.selected)
	}
	b.Reset()
	if p.trace != nil {
		p.trace.End(p.listPhase())
		if !p.stopped {
			p.trace.Begin(obs.PhaseSelect)
		}
	}
	return !p.stopped
}

// countSlots brings the probe's count of selected substrings, each of which
// is one lookup, up to the first upTo of them.
func (p *prober) countSlots(upTo int64) {
	n := upTo - p.counted
	p.counted = upTo
	if p.st != nil {
		p.st.SelectedSubstrings += n
		p.st.Lookups += n
	}
	if p.trace != nil {
		p.trace.AddCount(obs.PhaseSelect, n)
		p.trace.AddCount(obs.PhaseProbe, n)
	}
}

// probeMap is the probe loop over the map index of an unsealed Matcher,
// one lookup at a time. The map index stays as the index of a dynamic
// tier's delta, which takes inserts one by one. The loop is not hot enough
// to guard its trace calls: a nil trace records nothing.
func (p *prober) probeMap(s string, lmin, lmax int) {
	tr := p.trace
	p.selected, p.counted = 0, 0
	for l := lmin; l <= lmax && !p.stopped; l++ {
		g := p.idx.Group(l)
		if g == nil {
			continue
		}
		for i := 1; i <= p.tau+1 && !p.stopped; i++ {
			pi := partition.SegPos(l, p.tau, i)
			li := partition.SegLen(l, p.tau, i)
			tr.Begin(obs.PhaseSelect)
			lo, hi := p.sel.WindowQ(len(s), l, p.qtau, p.tau+1, i, pi, li)
			tr.End(obs.PhaseSelect)
			if hi < lo {
				continue
			}
			p.selected += int64(hi - lo + 1)
			p.countSlots(p.selected)
			tr.Begin(obs.PhaseProbe)
			for pos := lo; pos <= hi && !p.stopped; pos++ {
				if lst := g.List(i, s[pos-1:pos-1+li]); p.isHit(lst) {
					tr.Begin(p.listPhase()) // pauses the probe phase
					p.handleList(s, lst, i, pos, pi, li)
					tr.End(p.listPhase())
				}
			}
			tr.End(obs.PhaseProbe)
		}
	}
}

// listPhase is the phase a traced probe is in while it consumes lists:
// the whole-string verifiers only stamp and collect there, the extension
// verifiers verify.
func (p *prober) listPhase() obs.Phase {
	if p.wholeString() {
		return obs.PhaseDedup
	}
	return obs.PhaseVerify
}

// isHit reports whether lst, the answer to one lookup, is a list the probe
// may see, and counts it if so.
func (p *prober) isHit(lst []int32) bool {
	if len(lst) == 0 {
		return false
	}
	if p.st != nil {
		p.st.LookupHits++
	}
	return true
}

// handleList routes one inverted list: each candidate the signature filter
// lets through is collected into the probe's batch by a whole-string
// verifier (verified together in flushBatch) or verified in place, at the
// matched alignment, by an extension verifier. s matched the i-th segment
// (start pi, length li, of indexed strings) with its substring at 1-based
// position pos. A join splits the same work in two at the filter
// (blockJoin): its lookup stage filters, and its verify stage hands the
// survivors to collect or, after beginExtension at each list, to extend.
func (p *prober) handleList(s string, lst []int32, i, pos, pi, li int) {
	whole := p.wholeString()
	if whole {
		if p.trace != nil {
			p.trace.AddCount(obs.PhaseDedup, int64(len(lst)))
		}
	} else {
		p.beginExtension(s, i, pos, pi, li)
	}
	nv := int64(0)
	for _, rid := range lst {
		if p.st != nil {
			p.st.Candidates++
		}
		if p.sigReject(rid) {
			continue
		}
		if whole {
			p.collect(rid)
			continue
		}
		if p.extend(rid) {
			nv++
		}
		if p.stopped {
			break
		}
	}
	if !whole && p.trace != nil {
		p.trace.AddCount(obs.PhaseVerify, nv)
	}
}

// wholeString reports whether the verifier in use verifies whole strings,
// whose verdict does not depend on the alignment a candidate was found at.
func (p *prober) wholeString() bool {
	switch p.vk {
	case VerifyNaive, VerifyLengthAware, VerifyMyers:
		return true
	}
	return false
}

// sigReject reports whether candidate rid's signature already rules it out
// at the probe threshold, counting the rejection.
func (p *prober) sigReject(rid int32) bool {
	if verify.SigDist(p.sig[rid], p.qsig) <= 2*p.qtau {
		return false
	}
	if p.st != nil {
		p.st.SigRejects++
	}
	return true
}

// settled reports whether candidate rid is settled for the string in hand.
func (p *prober) settled(rid int32) bool {
	if j := p.join; j != nil {
		return j.settled.has(j.key(rid))
	}
	return p.stamp[rid] == p.epoch
}

// settle marks candidate rid, which is not, as settled for the string in
// hand.
func (p *prober) settle(rid int32) {
	if j := p.join; j != nil {
		j.settled.add(j.key(rid))
		return
	}
	p.stamp[rid] = p.epoch
}

// collect settles and batches candidate rid, which passed the signature
// filter, unless it is settled already. The whole-string verdict does not
// depend on the matched alignment, so each pair enters the batch at most
// once per probe.
func (p *prober) collect(rid int32) {
	if p.settled(rid) {
		return
	}
	p.settle(rid)
	if p.st != nil {
		p.st.UniqueCandidates++
	}
	if j := p.join; j != nil {
		j.whole = append(j.whole, j.key(rid))
	} else {
		p.batch = append(p.batch, rid)
	}
}

// flushBatch verifies the collected candidate set in one pass and emits
// the accepted ids in collection order. The batch amortizes the query-side
// scratch: one Pattern table (VerifyMyers), one set of pooled banded rows,
// all built before the first candidate.
func (p *prober) flushBatch(s string) {
	if len(p.batch) == 0 {
		return
	}
	if p.trace != nil {
		p.trace.Begin(obs.PhaseVerify)
	}
	nv := int64(0)
	for _, rid := range p.batch {
		nv++
		if d := p.distWhole(rid, s); d <= p.qtau && !p.accept(rid, int32(d)) {
			break
		}
	}
	if p.trace != nil {
		p.trace.AddCount(obs.PhaseVerify, nv) // fewer than the batch if the consumer stopped
		p.trace.End(obs.PhaseVerify)
	}
}

// distWhole is one verification by the whole-string verifier in use: the
// distance of candidate rid from s (whose pattern VerifyMyers has set), or
// more than qtau.
func (p *prober) distWhole(rid int32, s string) int {
	if p.st != nil {
		p.st.Verifications++
	}
	switch p.vk {
	case VerifyNaive:
		return p.ver.DistNaive(p.ref[rid], s, p.qtau)
	case VerifyMyers:
		return p.ver.DistPattern(&p.pat, p.ref[rid], p.qtau)
	}
	return p.ver.Dist(p.ref[rid], s, p.qtau)
}

// extension is the alignment of the inverted list an extension verifier is
// verifying: the probe string's parts left and right of its matched
// substring, their thresholds, and where the matched segment lies in the
// list's strings.
type extension struct {
	sl, sr     string
	tauL, tauR int
	pi, li     int
}

// beginExtension sets up the extension-based method of §5.2 for one list:
// both strings are split at the matched segment, the left parts verified
// under τl = min(i−1, τ′) and the right parts under τr = min(τ+1−i, τ′),
// where τ′ is the per-probe threshold (τ′ = τ leaves the paper's original
// bounds). When τ′ < τ the per-side bounds no longer sum to the budget, so
// acceptance additionally requires dl+dr ≤ τ′ — sound because the edit
// distance is at most dl+dr, and complete because the witness alignment of
// the paper's completeness lemma restricts the optimal alignment to the two
// sides, giving dl+dr ≤ ed ≤ τ′ there. The shared verifier's rows start
// over here, at every list.
func (p *prober) beginExtension(s string, i, pos, pi, li int) {
	x := &p.ext
	x.tauL = min(i-1, p.qtau)
	x.tauR = min(p.tau+1-i, p.qtau)
	x.sl = s[:pos-1]
	x.sr = s[pos-1+li:]
	x.pi, x.li = pi, li
	if p.vk == VerifyExtensionShared {
		p.incL.Reset(x.sl, x.tauL)
		p.incR.Reset(x.sr, x.tauR)
	}
}

// extend verifies candidate rid, which passed the signature filter, at the
// alignment of the list in hand (beginExtension), and accepts it if both
// sides are within reach; it reports whether it verified rid, which it does
// not when the pair is settled. A pair rejected here may still be accepted
// at a later alignment, so only accepted pairs are settled. An emit that
// says stop sets p.stopped.
func (p *prober) extend(rid int32) bool {
	if p.settled(rid) {
		return false
	}
	if p.st != nil {
		p.st.Verifications++
	}
	x := &p.ext
	shared := p.vk == VerifyExtensionShared
	r := p.ref[rid]
	var dl int
	if rl := r[:x.pi-1]; shared {
		dl = p.incL.Dist(rl)
	} else {
		dl = p.ver.Dist(rl, x.sl, x.tauL)
	}
	if dl > x.tauL {
		return true
	}
	var dr int
	if rr := r[x.pi-1+x.li:]; shared {
		dr = p.incR.Dist(rr)
	} else {
		dr = p.ver.Dist(rr, x.sr, x.tauR)
	}
	if dr > x.tauR || dl+dr > p.qtau {
		return true
	}
	p.settle(rid)
	var d int32 = -1
	if p.needDist {
		// dl+dr only bounds the distance from above (the optimal
		// alignment need not pass through this segment match), so
		// recover the exact value — the bit-parallel kernel is the
		// cheapest exact computer for word-sized strings, and the
		// accepted pair is guaranteed within the query threshold so the
		// thresholded result is exact. The query-side Pattern was built
		// once at probe start and serves every accepted candidate.
		d = int32(p.ver.DistPattern(&p.pat, r, p.qtau))
	}
	p.accept(rid, d)
	return true
}

// accept records one verified hit: it counts it, then streams it to emit
// when set or collects it into hits/dists otherwise. It returns false —
// after setting stopped — when the emit consumer wants no more results or
// the hit is the limit-th.
func (p *prober) accept(rid, d int32) bool {
	p.found++
	if p.emit != nil {
		if !p.emit(Hit{ID: rid, Dist: d}) {
			p.stopped = true
			return false
		}
	} else {
		p.hits = append(p.hits, rid)
		if p.needDist {
			p.dists = append(p.dists, d)
		}
	}
	if p.limit > 0 && p.found >= p.limit {
		p.stopped = true
		return false
	}
	return true
}

// verifyDirect verifies one candidate with the whole-string verifier
// against the per-probe threshold, bypassing segment context, and returns
// the exact distance (or qtau+1 when beyond the threshold). Used for the
// short-string side list.
func (p *prober) verifyDirect(r, s string) int {
	if p.st != nil {
		p.st.Candidates++
		p.st.UniqueCandidates++
		p.st.Verifications++
	}
	if p.trace == nil {
		return p.ver.Dist(r, s, p.qtau)
	}
	p.trace.Begin(obs.PhaseVerify)
	p.trace.AddCount(obs.PhaseVerify, 1)
	d := p.ver.Dist(r, s, p.qtau)
	p.trace.End(obs.PhaseVerify)
	return d
}
