// Package dynamic adds a write path next to the engine's read path: an
// LSM-style two-tier index that accepts inserts and deletes while serving
// queries, with optional durability.
//
// A Tier is the whole mutable index (the public DynamicSearcher holds one;
// Pass-Join's length groups already partition it, so nothing splits it by
// id):
//
//   - The base is a sealed core.Matcher — the frozen CSR index every
//     static searcher serves from — with the global id of each row in
//     ascending order, held behind an atomic.Pointer so the compactor can
//     swap in a rebuilt base without readers ever observing a half-built
//     index. A base document is found by binary search over those ids.
//   - The delta is a small mutable map-based core.Matcher receiving every
//     insert, with a map from global id to delta row (at most the
//     compaction threshold entries). Queries fan out over base + delta
//     and merge.
//   - Deletes are tombstones: one bit per dead row, in a bitset over base
//     rows and one over delta rows, tested per hit. The documents are
//     physically dropped at the next compaction.
//   - The compactor re-freezes base+delta into a fresh arena once the
//     delta and the dead base rows cross a size threshold. The heavy
//     rebuild (and the base snapshot write, in durable mode) runs outside
//     any lock, against copies of the two bitsets taken at the cut, so
//     queries proceed against the old view for the whole build. The swap
//     takes the write lock for the pointer store, the delta-tail rebuild,
//     one scan of the base bitset's words (n/64 for n base rows) that
//     moves each delete that raced the rebuild onto the new base by binary
//     search, and — in durable mode — one small WAL rewrite (the tail's
//     records, fsync, rename). No step of it touches every document.
//
// Durability is a write-ahead log (wal.go) appended before every mutation
// plus a base snapshot (snapshot.go) rewritten at each compaction; restart
// is snapshot + WAL tail. Replay is idempotent per global id, so a crash
// between the snapshot rename and the WAL rewrite only re-applies
// operations the snapshot already contains.
//
// Concurrency contract: any number of goroutines may call Search/Get
// concurrently with each other and with Insert/Delete/Compact. Readers
// share an RWMutex read lock (they never block one another and never wait
// for a compaction build); mutations and the compactor's swap take the
// write lock briefly.
package dynamic

import (
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"passjoin/internal/core"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
)

// DefaultCompactThreshold is the delta size per build worker that
// triggers a background compaction when Config leaves CompactThreshold at
// zero.
const DefaultCompactThreshold = 4096

// Config configures a Tier.
type Config struct {
	// Tau is the edit-distance threshold (required, >= 0).
	Tau int
	// CompactThreshold is the number of delta documents (live or
	// tombstoned) plus tombstoned base documents that triggers a background
	// compaction. 0 selects DefaultCompactThreshold × Workers; negative
	// disables automatic compaction (Compact can still be called).
	CompactThreshold int
	// Workers is the number of goroutines that build the frozen base at
	// Bootstrap, at Open and at every compaction; 0 means 1.
	Workers int
	// WALPath and SnapPath enable durability when non-empty (both must be
	// set together): mutations append to the WAL, compactions rewrite the
	// base snapshot, and Open replays snapshot + WAL tail.
	WALPath  string
	SnapPath string
	// Fsync flushes every WAL append to stable storage before the
	// mutation is acknowledged: durability across power loss, at a
	// per-operation fsync cost. Without it the WAL survives process
	// crashes (the kernel has the writes) but not kernel crashes or
	// power loss.
	Fsync bool
	// Logger receives the tier's write-path events: compaction start and
	// finish (with durations and sizes), background-compaction failures,
	// and WAL torn-tail truncations at startup. Nil discards them.
	Logger *slog.Logger
	// OnApply, when non-nil, observes every mutation the tier applies —
	// Insert, Delete, and replicated operations accepted by Apply — and is
	// invoked with the tier write lock held, after the operation is
	// durable (WAL-appended) and visible in memory. Holding the lock makes
	// the observation order identical to the apply order for any given
	// gid, which is what a replication log needs to stay convergent; the
	// callback must therefore be fast and must not call back into the
	// tier. Replay at Open and Bootstrap seeding do not fire it (that
	// state is delivered to followers by snapshot, not by log).
	OnApply func(Op)
}

// Hit is one query result: a global document id and the exact edit
// distance (<= tau).
type Hit struct {
	ID   int64
	Dist int
}

// maxDocID is the largest global id a tier accepts: the WAL and the base
// snapshot bound a gid, and the snapshot's nextID hint, by 2^62.
const maxDocID = 1<<62 - 1

// baseTier is one immutable generation of the frozen base: a sealed
// matcher without a stats sink, whose prober pool serves concurrent
// queries, and the global id of each of its rows (strictly ascending).
type baseTier struct {
	m   *core.Matcher
	ids []int64
}

// Tier is a dynamic two-tier index over the whole document space.
type Tier struct {
	cfg  Config
	base atomic.Pointer[baseTier]

	mu        sync.RWMutex
	delta     *core.Matcher
	deltaIDs  []int64
	byID      map[int64]int32 // delta row of each delta document
	deadBase  bitset          // tombstoned base rows
	deadDelta bitset          // tombstoned delta rows
	baseTombs int             // bits set in deadBase, counted toward the threshold
	live      int
	maxID     int64 // largest gid ever observed (the id allocator); -1 when none
	wal       *WAL
	lastErr   error // most recent background-compaction failure
	closed    bool

	cmu           sync.Mutex // serializes compactions
	compacting    atomic.Bool
	compactWG     sync.WaitGroup
	compactions   atomic.Int64
	compactErrors atomic.Int64 // failed compactions (background and synchronous)

	logger *slog.Logger // never nil; discards when unconfigured

	beforeSwap func() // test hook: runs between a compaction's rebuild and its swap
}

// bitset is a set of row positions, grown on demand.
type bitset []uint64

func (s bitset) has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(i&63)) != 0
}

func (s *bitset) set(i int) {
	for len(*s) <= i>>6 {
		*s = append(*s, 0)
	}
	(*s)[i>>6] |= 1 << (i & 63)
}

// Open creates or reopens a tier. With durability configured it loads the
// base snapshot (if present), replays the WAL tail over it, and truncates
// any torn record; without it the tier starts empty in memory.
func Open(cfg Config) (*Tier, error) {
	if cfg.Tau < 0 {
		return nil, fmt.Errorf("dynamic: negative threshold %d", cfg.Tau)
	}
	if (cfg.WALPath == "") != (cfg.SnapPath == "") {
		return nil, errors.New("dynamic: WALPath and SnapPath must be set together")
	}
	cfg.Workers = max(cfg.Workers, 1)
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = DefaultCompactThreshold * cfg.Workers
	}
	t := &Tier{
		cfg:    cfg,
		byID:   make(map[int64]int32),
		maxID:  -1,
		logger: cfg.Logger,
	}
	if t.logger == nil {
		t.logger = slog.New(slog.DiscardHandler)
	}
	var err error
	if t.delta, err = core.NewMatcher(cfg.Tau, selection.MultiMatch, core.VerifyExtensionShared, nil); err != nil {
		return nil, err
	}
	gids, corpus, nextID, err := t.readSnapshot(cfg.SnapPath)
	if err != nil {
		return nil, err
	}
	m, err := t.buildSealed(corpus)
	if err != nil {
		return nil, err
	}
	t.setBase(m, gids, nextID-1) // readBaseSnapshot holds every gid below the hint
	if cfg.WALPath != "" {
		if t.wal, err = t.replayWAL(cfg.WALPath, cfg.Fsync); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// replayWAL opens the log at path, truncating any torn tail, and applies its
// records as replayed operations.
func (t *Tier) replayWAL(path string, fsync bool) (*WAL, error) {
	wal, ops, err := OpenWAL(path, fsync)
	if err != nil {
		return nil, err
	}
	if wal.Truncated != nil {
		// Routine crash recovery, but operators should see it: the torn
		// bytes were acknowledged writes only if fsync was off.
		t.logger.Warn("wal torn tail truncated",
			"path", path,
			"replayed_records", len(ops),
			"kept_bytes", wal.Bytes(),
			"error", wal.Truncated)
	}
	for _, op := range ops {
		t.apply(&op, false) // a replayed op is not logged, so it cannot fail
	}
	return wal, nil
}

// readSnapshot reads the base snapshot at path. No path, or no file there,
// reads as an empty base that has observed no id.
func (t *Tier) readSnapshot(path string) (gids []int64, corpus []string, nextID int64, err error) {
	f, err := os.Open(path)
	if path == "" || os.IsNotExist(err) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	gids, corpus, tau, nextID, err := readBaseSnapshot(f)
	if err == nil && tau != t.cfg.Tau {
		err = fmt.Errorf("dynamic: snapshot built for tau=%d, tier configured for tau=%d", tau, t.cfg.Tau)
	}
	return gids, corpus, nextID, err
}

// setBase installs m, whose rows hold gids, as the base of a tier with no
// other document, and raises the id allocator to maxID.
func (t *Tier) setBase(m *core.Matcher, gids []int64, maxID int64) {
	t.base.Store(&baseTier{m: m, ids: gids})
	t.maxID = max(t.maxID, maxID)
	t.live = len(gids)
}

// Absorb folds another tier's durable state — the base snapshot at
// snapPath, then the WAL at walPath, torn tail truncated — into t the way
// Open replays t's own WAL: no WAL append, no OnApply, and the other tier's
// largest id (snapshot hint and watermarks included) carried into t's
// allocator. Replay is idempotent per gid, so absorbing the same files twice
// changes nothing. It converts a directory written when the index was split
// by id; the folded documents are durable only after the next Compact.
func (t *Tier) Absorb(snapPath, walPath string) error {
	gids, docs, nextID, err := t.readSnapshot(snapPath)
	if err != nil {
		return err
	}
	t.apply(&Op{Watermark: true, ID: nextID - 1}, false)
	for i, gid := range gids {
		t.apply(&Op{ID: gid, Doc: docs[i]}, false)
	}
	wal, err := t.replayWAL(walPath, false)
	if err != nil {
		return err
	}
	return wal.Close()
}

// Bootstrap seeds an empty tier with an initial corpus, building the
// frozen base directly (no per-document WAL traffic) and, when durable,
// writing the base snapshot. gids must be strictly increasing and
// len(gids) == len(docs); the tier keeps docs, which must not be modified
// afterwards.
func (t *Tier) Bootstrap(gids []int64, docs []string) error {
	if len(gids) != len(docs) {
		return fmt.Errorf("dynamic: %d gids for %d documents", len(gids), len(docs))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("dynamic: tier is closed")
	}
	if t.maxID >= 0 {
		return errors.New("dynamic: Bootstrap on a tier that has seen documents")
	}
	m, err := t.buildSealed(docs)
	if err != nil {
		return err
	}
	maxID := int64(-1)
	if n := len(gids); n > 0 {
		maxID = gids[n-1]
	}
	if t.cfg.SnapPath != "" {
		if err := writeBaseSnapshot(t.cfg.SnapPath, t.cfg.Tau, maxID+1, gids, docs); err != nil {
			return err
		}
		if err := t.wal.Rewrite(nil); err != nil {
			return err
		}
	}
	t.setBase(m, gids, maxID)
	return nil
}

// buildSealed bulk-builds a frozen base over docs, which the base keeps.
func (t *Tier) buildSealed(docs []string) (*core.Matcher, error) {
	return core.BuildSealedMatcher(t.cfg.Tau, selection.MultiMatch, core.VerifyExtensionShared, nil, docs, t.cfg.Workers)
}

// Insert adds doc under the next global id — one past the largest the tier
// has observed, allocated under the write lock — and returns that id; it
// fails once that id would pass the id space. With durability the
// operation is appended to the WAL before it becomes visible.
func (t *Tier) Insert(doc string) (int64, error) {
	op := Op{ID: -1, Doc: doc}
	_, err := t.apply(&op, true)
	return op.ID, err
}

// apply is the one write path, under Insert, Delete, Apply, WAL replay and
// Absorb: with the write lock held, raise the id allocator to a watermark,
// refuse a document over MaxDoc (its record no follower could read), give
// an add with a negative id (Insert) the next id, skip an operation that
// would change nothing, append it to the WAL, mutate the delta or the
// tombstones, count, fire OnApply — in that order, so an operation is
// durable before it is visible and visible before it is observed — and,
// the lock released, start a background compaction when the delta and the
// base tombstones reach the threshold. live is false for replay, which
// neither checks MaxDoc, nor logs the operation again, nor fires the hook,
// nor compacts. Replay is idempotent per gid: an add whose id already
// exists is skipped (the base snapshot may already contain it if a crash
// landed between the snapshot rename and the WAL rewrite), as is a delete
// of an absent or already-dead id. It reports whether the operation
// changed the tier.
func (t *Tier) apply(op *Op, live bool) (bool, error) {
	trigger := false
	t.mu.Lock()
	defer func() {
		t.mu.Unlock()
		t.maybeCompact(trigger)
	}()
	if t.closed {
		return false, errors.New("dynamic: tier is closed")
	}
	if op.Watermark {
		t.maxID = max(t.maxID, op.ID)
		return false, nil
	}
	if live && len(op.Doc) > MaxDoc {
		return false, fmt.Errorf("dynamic: document of %d bytes exceeds the %d-byte limit", len(op.Doc), MaxDoc)
	}
	if !op.Del && op.ID < 0 {
		if t.maxID >= maxDocID {
			return false, errors.New("dynamic: document id space exhausted")
		}
		op.ID = t.maxID + 1
	}
	pos, dead, known := t.locate(op.ID)
	if op.Del {
		if !known || dead.has(pos) {
			return false, nil
		}
	} else if known {
		return false, nil
	}
	if live && t.wal != nil {
		if err := t.wal.Append(*op); err != nil {
			return false, err
		}
	}
	if op.Del {
		dead.set(pos)
		if dead == &t.deadBase {
			t.baseTombs++
		}
		t.live--
	} else {
		t.delta.InsertSilent(op.Doc)
		t.byID[op.ID] = int32(len(t.deltaIDs))
		t.deltaIDs = append(t.deltaIDs, op.ID)
		t.maxID = max(t.maxID, op.ID)
		t.live++
	}
	trigger = live && t.cfg.CompactThreshold > 0 && t.delta.Len()+t.baseTombs >= t.cfg.CompactThreshold
	if live && t.cfg.OnApply != nil {
		t.cfg.OnApply(*op)
	}
	return true, nil
}

// locate finds gid in the current view, tombstoned or not: its row and the
// bitset holding that row's tombstone, &t.deadBase for a row of the base
// and &t.deadDelta for one of the delta. A gid is in at most one of them,
// since an add of a known id is skipped. The caller holds t.mu.
func (t *Tier) locate(gid int64) (pos int, dead *bitset, ok bool) {
	if i, found := slices.BinarySearch(t.base.Load().ids, gid); found {
		return i, &t.deadBase, true
	}
	i, ok := t.byID[gid]
	return int(i), &t.deadDelta, ok
}

// maybeCompact kicks off one background compaction when trigger is set and
// none is already running; failures are logged and retained for Err.
func (t *Tier) maybeCompact(trigger bool) {
	if !trigger || !t.compacting.CompareAndSwap(false, true) {
		return
	}
	t.compactWG.Add(1)
	go func() {
		defer t.compactWG.Done()
		defer t.compacting.Store(false)
		if err := t.Compact(); err != nil {
			// Loudly: the tier keeps serving and the WAL keeps growing,
			// but a silent lastErr is how disks fill up. The counter
			// feeds passjoin_compact_errors_total.
			t.logger.Error("background compaction failed", "error", err)
			t.mu.Lock()
			t.lastErr = err
			t.mu.Unlock()
		}
	}()
}

// Apply applies one replicated operation idempotently by gid: an add whose
// id is already known is skipped, as is a delete of an absent or
// already-dead id (the same discipline WAL replay uses, so re-applying any
// already-applied prefix of a replication stream is harmless). Applied
// operations are WAL-logged, observed by OnApply, and trigger background
// compaction exactly like local mutations; an applied add raises the id
// allocator past its id. An id CheckID refuses is refused with its error.
// It reports whether the operation changed the tier.
func (t *Tier) Apply(op Op) (bool, error) {
	if op.Watermark {
		return false, fmt.Errorf("dynamic: watermark ops are not replicable")
	}
	if err := CheckID(op.ID); err != nil {
		return false, err
	}
	return t.apply(&op, true)
}

// CheckID refuses a document id outside [0, 2^62-1], the ids a tier
// accepts, with an error wrapping strconv.ErrRange.
func CheckID(gid int64) error {
	if gid < 0 || gid > maxDocID {
		return fmt.Errorf("dynamic: document id %d outside [0, %d]: %w", gid, int64(maxDocID), strconv.ErrRange)
	}
	return nil
}

// Delete tombstones gid. It reports whether the document existed and was
// live.
func (t *Tier) Delete(gid int64) (bool, error) {
	return t.apply(&Op{Del: true, ID: gid}, true)
}

// Live returns every live document with its global id, captured
// atomically under the tier's read lock (base rows first, then the delta,
// tombstones filtered; ids are unique but not sorted). The replication
// source uses it to cut follower bootstrap snapshots.
func (t *Tier) Live() ([]int64, []string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	gids := make([]int64, 0, t.live)
	docs := make([]string, 0, t.live)
	b := t.base.Load()
	for i, gid := range b.ids {
		if !t.deadBase.has(i) {
			gids = append(gids, gid)
			docs = append(docs, b.m.String(i))
		}
	}
	for i, gid := range t.deltaIDs {
		if !t.deadDelta.has(i) {
			gids = append(gids, gid)
			docs = append(docs, t.delta.String(i))
		}
	}
	return gids, docs
}

// SearchOpt returns the live documents within o.Tau of q as (global id,
// exact distance), in no particular order (the caller ranks). o.Tau must be
// in [0, cfg.Tau] — both the frozen base and the mutable delta were
// partitioned for cfg.Tau and answer any smaller budget exactly — and
// o.Limit, when positive, caps the number of live hits returned. The cap
// counts live documents only: tombstoned hits never displace live ones, so
// a capped result is short only when fewer live matches exist. It is safe
// for any number of concurrent callers.
func (t *Tier) SearchOpt(q string, o core.QueryOpts) []Hit {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Hit
	full := func() bool { return o.Limit > 0 && len(out) >= o.Limit }
	// The engine-level cap cannot see tombstones, so the filtering and
	// capping happen here, streaming via QuerySeq for the early exit.
	// Base and delta probe sequentially on this goroutine, so they can
	// share the caller's trace directly. Each query takes its scratch from
	// the matcher's prober pool; the delta is queried in place, which the
	// read lock makes safe (inserts take the write lock).
	probe := core.QueryOpts{Tau: o.Tau, Trace: o.Trace}
	b := t.base.Load()
	b.m.QuerySeq(q, probe, func(h core.Hit) bool {
		if !t.deadBase.has(int(h.ID)) {
			out = append(out, Hit{ID: b.ids[h.ID], Dist: int(h.Dist)})
		}
		return !full()
	})
	if !full() && t.delta.Len() > 0 {
		t.delta.QuerySeq(q, probe, func(h core.Hit) bool {
			if !t.deadDelta.has(int(h.ID)) {
				out = append(out, Hit{ID: t.deltaIDs[h.ID], Dist: int(h.Dist)})
			}
			return !full()
		})
	}
	return out
}

// Get returns the live document stored under gid.
func (t *Tier) Get(gid int64) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pos, dead, ok := t.locate(gid)
	switch {
	case !ok || dead.has(pos):
		return "", false
	case dead == &t.deadDelta:
		return t.delta.String(pos), true
	}
	return t.base.Load().m.String(pos), true
}

// Len returns the number of live documents.
func (t *Tier) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// MaxID returns the largest global id this tier has observed (-1 when
// none); Insert assigns MaxID()+1 next.
func (t *Tier) MaxID() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.maxID
}

// Err returns the most recent background-compaction failure, if any.
func (t *Tier) Err() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastErr
}

// Compact folds the delta and the tombstones into a fresh frozen base and
// swaps it in. The rebuild runs without holding the tier lock — queries
// and mutations proceed against the old view throughout — and the final
// swap takes the write lock for the pointer store, the delta-tail
// rebuild, one word scan of the base tombstone bits, and (durable mode)
// the WAL tail rewrite; apart from that scan (n/64 words), the pause is
// proportional to the mutations that raced the rebuild. Mutations that
// land during the rebuild stay in the new (small) delta. With durability
// the new base snapshot is written before the swap, outside the lock.
func (t *Tier) Compact() error {
	if err := t.compact(); err != nil {
		t.compactErrors.Add(1)
		return err
	}
	return nil
}

func (t *Tier) compact() error {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	start := time.Now()

	// Capture a consistent cut: the current base generation, the delta
	// prefix, and the tombstone bits set so far.
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return errors.New("dynamic: tier is closed")
	}
	oldBase := t.base.Load()
	oldIDs := oldBase.ids
	cutLen := t.delta.Len()
	// The delta's ids and corpus are append-only, so these prefixes stay
	// valid while concurrent inserts extend the delta behind them — no
	// copying needed.
	cutIDs := t.deltaIDs[:cutLen]
	cutDocs := t.delta.Corpus()[:cutLen]
	cutDeadBase, cutDeadDelta := slices.Clone(t.deadBase), slices.Clone(t.deadDelta)
	tombs := len(oldIDs) + cutLen - t.live
	maxID := t.maxID
	t.mu.RUnlock()

	t.logger.Info("compaction started",
		"base_docs", len(oldIDs),
		"delta_docs", cutLen,
		"tombstones", tombs)

	// Rebuild the base from the survivors, outside any lock.
	var survivors []string
	var gids []int64
	for i, gid := range oldIDs {
		if !cutDeadBase.has(i) {
			survivors = append(survivors, oldBase.m.String(i))
			gids = append(gids, gid)
		}
	}
	for i, gid := range cutIDs {
		if !cutDeadDelta.has(i) {
			survivors = append(survivors, cutDocs[i])
			gids = append(gids, gid)
		}
	}
	// Local inserts arrive in allocation order, but replicated applies
	// (Apply) and absorbed shards (Absorb) can land gids below the base
	// range or out of order within the delta. The frozen base and the PJDT
	// snapshot both require ascending gids, so restore the invariant here
	// rather than constraining every caller.
	if !slices.IsSorted(gids) {
		sort.Sort(byGID{gids, survivors})
	}
	m, err := t.buildSealed(survivors)
	if err != nil {
		return err
	}
	nb := &baseTier{m: m, ids: gids}
	if t.cfg.SnapPath != "" {
		if err := writeBaseSnapshot(t.cfg.SnapPath, t.cfg.Tau, maxID+1, gids, survivors); err != nil {
			return err
		}
	}
	if t.beforeSwap != nil {
		t.beforeSwap()
	}

	// Swap. Everything the cut captured is now in the new base (or was a
	// tombstone it already folded in); the delta tail — mutations that
	// raced the rebuild — carries over into a fresh delta. Every fallible
	// step runs before the first mutation of tier state, so a failure
	// here leaves the old view fully intact (tombstones included); the
	// already-renamed base snapshot is harmless because WAL replay is
	// idempotent against it.
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("dynamic: tier is closed")
	}
	newDelta, err := core.NewMatcher(t.cfg.Tau, selection.MultiMatch, core.VerifyExtensionShared, nil)
	if err != nil {
		return err
	}
	var newIDs []int64
	newByID := make(map[int64]int32)
	var tailOps []Op
	// The watermark record pins the id allocator: the snapshot's nextID
	// hint was taken at the cut, and a document inserted and deleted
	// during the rebuild leaves no add record behind — without the
	// watermark, a restart could re-issue its id.
	if t.maxID >= 0 {
		tailOps = append(tailOps, Op{Watermark: true, ID: t.maxID})
	}
	for j := cutLen; j < t.delta.Len(); j++ {
		if t.deadDelta.has(j) {
			// Inserted and deleted while the rebuild ran: the document
			// exists nowhere else, so the tombstone is fully applied.
			continue
		}
		gid, doc := t.deltaIDs[j], t.delta.String(j)
		newDelta.InsertSilent(doc)
		newByID[gid] = int32(len(newIDs))
		newIDs = append(newIDs, gid)
		tailOps = append(tailOps, Op{ID: gid, Doc: doc})
	}
	// Deletes that raced the rebuild target documents now in the new base:
	// each bit set since the cut on a row the cut covered (a row of ids)
	// moves to the new row of the same gid, and its delete must survive a
	// restart.
	var deadBase bitset
	moved := 0
	carry := func(now, cut bitset, ids []int64) {
		for w, word := range now {
			if w < len(cut) {
				word &^= cut[w]
			}
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if i >= len(ids) {
					return
				}
				p, _ := slices.BinarySearch(gids, ids[i])
				deadBase.set(p)
				moved++
				tailOps = append(tailOps, Op{Del: true, ID: ids[i]})
			}
		}
	}
	carry(t.deadBase, cutDeadBase, oldIDs)
	carry(t.deadDelta, cutDeadDelta, cutIDs)
	if t.wal != nil {
		if err := t.wal.Rewrite(tailOps); err != nil {
			return err
		}
	}
	t.base.Store(nb)
	t.delta = newDelta
	t.deltaIDs = newIDs
	t.byID = newByID
	t.deadBase, t.deadDelta = deadBase, nil
	t.baseTombs = moved
	t.compactions.Add(1)
	t.logger.Info("compaction finished",
		"duration", time.Since(start),
		"docs", len(gids),
		"delta_tail", len(newIDs),
		"frozen_bytes", m.FrozenIndex().Bytes())
	return nil
}

// byGID sorts a compaction's survivors, in place, by gid.
type byGID struct {
	gids []int64
	docs []string
}

func (s byGID) Len() int           { return len(s.gids) }
func (s byGID) Less(i, j int) bool { return s.gids[i] < s.gids[j] }
func (s byGID) Swap(i, j int) {
	s.gids[i], s.gids[j] = s.gids[j], s.gids[i]
	s.docs[i], s.docs[j] = s.docs[j], s.docs[i]
}

// Stats returns a point-in-time summary. Strings counts live documents,
// and Tombstones the dead rows of base and delta, so the base holds
// Strings + Tombstones - DeltaDocs rows.
func (t *Tier) Stats() metrics.Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b := t.base.Load()
	fz := b.m.FrozenIndex() // a base is a sealed matcher (buildSealed)
	st := metrics.Stats{
		Strings:       int64(t.live),
		DeltaDocs:     int64(t.delta.Len()),
		Tombstones:    int64(len(b.ids) + t.delta.Len() - t.live),
		Compactions:   t.compactions.Load(),
		CompactErrors: t.compactErrors.Load(),
		FrozenBytes:   fz.Bytes(),
		FrozenEntries: fz.Entries(),
	}
	if t.wal != nil {
		st.WALBytes = t.wal.Bytes()
		st.WALRecords = t.wal.Records()
	}
	return st
}

// Close waits for any in-flight background compaction, syncs and closes
// the WAL, and marks the tier unusable for further mutation. It returns
// the last background-compaction error, if any.
func (t *Tier) Close() error {
	t.compactWG.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.lastErr
	if t.wal != nil {
		if werr := t.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}
