// Package dynamic adds a write path next to the engine's read path: an
// LSM-style two-tier index that accepts inserts and deletes while serving
// queries, with optional durability.
//
// A Tier is the whole mutable index (the public DynamicSearcher holds one;
// Pass-Join's length groups already partition it, so nothing splits it by
// id):
//
//   - The base is a sealed core.Matcher — the frozen CSR index every
//     static searcher serves from — held behind an atomic.Pointer so the
//     compactor can swap in a rebuilt base without readers ever observing
//     a half-built index.
//   - The delta is a small mutable map-based core.Matcher receiving every
//     insert. Queries fan out over base + delta and merge.
//   - Deletes are tombstones: a set of dead global ids filtered out of
//     both tiers' results. The documents are physically dropped at the
//     next compaction.
//   - The compactor re-freezes base+delta into a fresh arena once the
//     delta crosses a size threshold. The heavy rebuild (and the base
//     snapshot write, in durable mode) runs outside any lock, so queries
//     proceed against the old view for the whole build; the final swap
//     takes the write lock for the pointer store, the delta-tail rebuild
//     and — in durable mode — one small WAL rewrite (tail records +
//     fsync + rename), so writers and readers see a brief pause bounded
//     by the tail size, not the corpus size.
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
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"passjoin/internal/core"
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
	// Selection method for probes; zero value is MultiMatch.
	Selection selection.Method
	// Verification algorithm; zero value is VerifyExtensionShared.
	Verification core.VerifyKind
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

// entry locates a live or tombstoned document in the current view.
type entry struct {
	pos   int32
	delta bool
}

// baseTier is one immutable generation of the frozen base: a sealed
// matcher, the global id of each of its rows, and a pool of query
// snapshots (shared arena, private scratch).
type baseTier struct {
	m    *core.Matcher
	ids  []int64
	pool sync.Pool
}

func newBaseTier(m *core.Matcher, ids []int64) *baseTier {
	b := &baseTier{m: m, ids: ids}
	b.pool.New = func() any { return b.m.Snapshot() }
	return b
}

// Tier is a dynamic two-tier index over the whole document space.
type Tier struct {
	cfg  Config
	base atomic.Pointer[baseTier]

	mu        sync.RWMutex
	delta     *core.Matcher
	deltaIDs  []int64
	byID      map[int64]entry
	tombs     map[int64]struct{}
	baseTombs int // tombstones of base documents, counted toward the threshold
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
}

// Stats is a point-in-time summary of a tier's shape.
type Stats struct {
	Live          int   // documents visible to queries
	BaseDocs      int   // rows in the frozen base (including tombstoned)
	DeltaDocs     int   // rows in the mutable delta (including tombstoned)
	Tombstones    int   // pending deletes
	Compactions   int64 // completed compactions
	CompactErrors int64 // failed compactions (background and synchronous)
	WALBytes      int64 // current WAL size (0 without durability)
	WALRecords    int64 // current WAL record count
	FrozenBytes   int64 // retained size of the frozen base
	FrozenEntries int64 // postings in the frozen base
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
		byID:   make(map[int64]entry),
		tombs:  make(map[int64]struct{}),
		maxID:  -1,
		logger: cfg.Logger,
	}
	if t.logger == nil {
		t.logger = slog.New(slog.DiscardHandler)
	}
	var err error
	if t.delta, err = core.NewMatcher(cfg.Tau, cfg.Selection, cfg.Verification, nil); err != nil {
		return nil, err
	}
	if cfg.SnapPath != "" {
		if err := t.loadSnapshot(cfg.SnapPath); err != nil {
			return nil, err
		}
	}
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

// readSnapshot reads the base snapshot at path; a missing file is an error
// satisfying os.IsNotExist.
func (t *Tier) readSnapshot(path string) (gids []int64, corpus []string, nextID int64, err error) {
	f, err := os.Open(path)
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

func (t *Tier) loadSnapshot(path string) error {
	gids, corpus, nextID, err := t.readSnapshot(path)
	if os.IsNotExist(err) {
		return nil // fresh directory: empty base
	}
	if err != nil {
		return err
	}
	m, err := t.buildSealed(corpus)
	if err != nil {
		return err
	}
	t.setBase(m, gids, nextID-1) // readBaseSnapshot holds every gid below the hint
	return nil
}

// setBase installs m, whose rows hold gids, as the base of an empty tier
// that has observed ids up to maxID.
func (t *Tier) setBase(m *core.Matcher, gids []int64, maxID int64) {
	t.base.Store(newBaseTier(m, gids))
	for i, gid := range gids {
		t.byID[gid] = entry{pos: int32(i)}
	}
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
	if err != nil && !os.IsNotExist(err) {
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
	if t.base.Load() != nil || t.delta.Len() > 0 || len(t.tombs) > 0 {
		return errors.New("dynamic: Bootstrap on a non-empty tier")
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
	return core.BuildSealedMatcher(t.cfg.Tau, t.cfg.Selection, t.cfg.Verification, nil, docs, t.cfg.Workers)
}

// Insert adds doc under the next global id — one past the largest the tier
// has observed, allocated under the write lock — and returns that id. With
// durability the operation is appended to the WAL before it becomes
// visible.
func (t *Tier) Insert(doc string) (int64, error) {
	op := Op{ID: -1, Doc: doc}
	_, err := t.apply(&op, true)
	return op.ID, err
}

// apply is the one write path, under Insert, Delete, Apply, WAL replay and
// Absorb: with the write lock held, raise the id allocator to a watermark,
// give an add with a negative id (Insert) the next id, skip an operation
// that would change nothing, append it to the WAL, mutate the delta or the
// tombstones, count, fire OnApply — in that order, so an operation is
// durable before it is visible and visible before it is observed — and,
// the lock released, start a background compaction when the delta and the
// base tombstones reach the threshold. live is false for replay, which
// neither logs the operation again, nor fires the hook, nor compacts.
// Replay is idempotent per gid: an add whose id already exists is skipped
// (the base snapshot may already contain it if a crash landed between the
// snapshot rename and the WAL rewrite), as is a delete of an absent or
// already-dead id. It reports whether the operation changed the tier.
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
	if !op.Del && op.ID < 0 {
		op.ID = t.maxID + 1
	}
	e, known := t.byID[op.ID]
	if op.Del {
		if _, dead := t.tombs[op.ID]; !known || dead {
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
		t.tombs[op.ID] = struct{}{}
		if !e.delta {
			t.baseTombs++
		}
		t.live--
	} else {
		t.delta.InsertSilent(op.Doc)
		t.deltaIDs = append(t.deltaIDs, op.ID)
		t.byID[op.ID] = entry{pos: int32(len(t.deltaIDs) - 1), delta: true}
		t.maxID = max(t.maxID, op.ID)
		t.live++
	}
	trigger = live && t.cfg.CompactThreshold > 0 && t.delta.Len()+t.baseTombs >= t.cfg.CompactThreshold
	if live && t.cfg.OnApply != nil {
		t.cfg.OnApply(*op)
	}
	return true, nil
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
// allocator past its id. It reports whether the operation changed the
// tier.
func (t *Tier) Apply(op Op) (bool, error) {
	if op.Watermark {
		return false, fmt.Errorf("dynamic: watermark ops are not replicable")
	}
	if op.ID < 0 {
		return false, fmt.Errorf("dynamic: negative document id %d", op.ID)
	}
	return t.apply(&op, true)
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
	if b := t.base.Load(); b != nil {
		for i, gid := range b.ids {
			if _, dead := t.tombs[gid]; !dead {
				gids = append(gids, gid)
				docs = append(docs, b.m.String(i))
			}
		}
	}
	for i, gid := range t.deltaIDs {
		if _, dead := t.tombs[gid]; !dead {
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
	// share the caller's trace directly.
	probe := core.QueryOpts{Tau: o.Tau, Trace: o.Trace}
	if b := t.base.Load(); b != nil {
		m := b.pool.Get().(*core.Matcher)
		m.QuerySeq(q, probe, func(h core.Hit) bool {
			gid := b.ids[h.ID]
			if _, dead := t.tombs[gid]; !dead {
				out = append(out, Hit{ID: gid, Dist: int(h.Dist)})
			}
			return !full()
		})
		b.pool.Put(m)
	}
	if !full() && t.delta.Len() > 0 {
		snap := t.delta.Snapshot()
		snap.QuerySeq(q, probe, func(h core.Hit) bool {
			gid := t.deltaIDs[h.ID]
			if _, dead := t.tombs[gid]; !dead {
				out = append(out, Hit{ID: gid, Dist: int(h.Dist)})
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
	e, ok := t.byID[gid]
	if !ok {
		return "", false
	}
	if _, dead := t.tombs[gid]; dead {
		return "", false
	}
	if e.delta {
		return t.delta.String(int(e.pos)), true
	}
	return t.base.Load().m.String(int(e.pos)), true
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
// rebuild, and (durable mode) the WAL tail rewrite; that pause is
// proportional to the mutations that raced the rebuild, not to the
// corpus. Mutations that land during the rebuild stay in the new (small)
// delta. With durability the new base snapshot is written before the
// swap, outside the lock.
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
	// prefix, and the tombstones accumulated so far.
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return errors.New("dynamic: tier is closed")
	}
	oldBase := t.base.Load()
	cutLen := t.delta.Len()
	cutIDs := append([]int64(nil), t.deltaIDs[:cutLen]...)
	// The corpus prefix is append-only, so this cut stays valid while
	// concurrent inserts extend the delta behind it — no copying needed.
	cutDocs := t.delta.Corpus()[:cutLen]
	cutTombs := make(map[int64]struct{}, len(t.tombs))
	for gid := range t.tombs {
		cutTombs[gid] = struct{}{}
	}
	maxID := t.maxID
	t.mu.RUnlock()

	baseN := 0
	if oldBase != nil {
		baseN = len(oldBase.ids)
	}
	t.logger.Info("compaction started",
		"base_docs", baseN,
		"delta_docs", cutLen,
		"tombstones", len(cutTombs))

	// Rebuild the base from the survivors, outside any lock.
	var survivors []string
	var gids []int64
	if oldBase != nil {
		baseDocs := oldBase.m.Corpus()
		for i, gid := range oldBase.ids {
			if _, dead := cutTombs[gid]; !dead {
				survivors = append(survivors, baseDocs[i])
				gids = append(gids, gid)
			}
		}
	}
	for i, gid := range cutIDs {
		if _, dead := cutTombs[gid]; !dead {
			survivors = append(survivors, cutDocs[i])
			gids = append(gids, gid)
		}
	}
	// Local inserts arrive in allocation order, but replicated applies
	// (Apply) and absorbed shards (Absorb) can land gids below the base
	// range or out of order within the delta. The frozen base and the PJDT
	// snapshot both require ascending gids, so restore the invariant here
	// rather than constraining every caller.
	if !sort.SliceIsSorted(gids, func(a, b int) bool { return gids[a] < gids[b] }) {
		ord := make([]int, len(gids))
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool { return gids[ord[a]] < gids[ord[b]] })
		sortedGids := make([]int64, len(gids))
		sortedDocs := make([]string, len(survivors))
		for i, j := range ord {
			sortedGids[i] = gids[j]
			sortedDocs[i] = survivors[j]
		}
		gids, survivors = sortedGids, sortedDocs
	}
	m, err := t.buildSealed(survivors)
	if err != nil {
		return err
	}
	nb := newBaseTier(m, gids)
	if t.cfg.SnapPath != "" {
		if err := writeBaseSnapshot(t.cfg.SnapPath, t.cfg.Tau, maxID+1, gids, survivors); err != nil {
			return err
		}
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
	newDelta, err := core.NewMatcher(t.cfg.Tau, t.cfg.Selection, t.cfg.Verification, nil)
	if err != nil {
		return err
	}
	var newIDs []int64
	var tailOps []Op
	// The watermark record pins the id allocator: the snapshot's nextID
	// hint was taken at the cut, and a document inserted and deleted
	// during the rebuild leaves no add record behind — without the
	// watermark, a restart could re-issue its id.
	if t.maxID >= 0 {
		tailOps = append(tailOps, Op{Watermark: true, ID: t.maxID})
	}
	appliedTail := make(map[int64]struct{})
	for j := cutLen; j < t.delta.Len(); j++ {
		gid := t.deltaIDs[j]
		doc := t.delta.String(j)
		if _, dead := t.tombs[gid]; dead {
			// Inserted and deleted while the rebuild ran: the document
			// exists nowhere else, so the tombstone is fully applied.
			appliedTail[gid] = struct{}{}
			continue
		}
		newDelta.InsertSilent(doc)
		newIDs = append(newIDs, gid)
		tailOps = append(tailOps, Op{ID: gid, Doc: doc})
	}
	// Deletes that raced the rebuild target documents now in the new
	// base; they stay tombstones and must survive a restart.
	for gid := range t.tombs {
		if _, cut := cutTombs[gid]; cut {
			continue
		}
		if _, applied := appliedTail[gid]; applied {
			continue
		}
		tailOps = append(tailOps, Op{Del: true, ID: gid})
	}
	if t.wal != nil {
		if err := t.wal.Rewrite(tailOps); err != nil {
			return err
		}
	}
	for gid := range cutTombs {
		delete(t.tombs, gid)
	}
	for gid := range appliedTail {
		delete(t.tombs, gid)
	}
	t.baseTombs = len(t.tombs) // the raced deletes left all target the new base
	t.base.Store(nb)
	t.delta = newDelta
	t.deltaIDs = newIDs
	t.byID = make(map[int64]entry, len(gids)+len(newIDs))
	for i, gid := range gids {
		t.byID[gid] = entry{pos: int32(i)}
	}
	for i, gid := range newIDs {
		t.byID[gid] = entry{pos: int32(i), delta: true}
	}
	t.compactions.Add(1)
	t.logger.Info("compaction finished",
		"duration", time.Since(start),
		"docs", len(gids),
		"delta_tail", len(newIDs),
		"frozen_bytes", m.FrozenIndex().Bytes())
	return nil
}

// Stats returns a point-in-time summary.
func (t *Tier) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := Stats{
		Live:          t.live,
		DeltaDocs:     t.delta.Len(),
		Tombstones:    len(t.tombs),
		Compactions:   t.compactions.Load(),
		CompactErrors: t.compactErrors.Load(),
	}
	if b := t.base.Load(); b != nil {
		st.BaseDocs = len(b.ids)
		fz := b.m.FrozenIndex() // a base is a sealed matcher (buildSealed)
		st.FrozenBytes, st.FrozenEntries = fz.Bytes(), fz.Entries()
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
