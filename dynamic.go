package passjoin

import (
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"passjoin/internal/core"
	"passjoin/internal/dynamic"
	"passjoin/internal/metrics"
)

// DynamicSearcher answers approximate string search queries like
// ShardedSearcher, but accepts inserts and deletes while serving — the
// live-update counterpart of the static searchers. Documents get stable
// global ids from a monotone counter and are partitioned across N shards
// by id (document g lives in shard g mod N; the static searchers are not
// partitioned at all); every shard is a two-tier dynamic index
// (internal/dynamic): a frozen CSR base swapped atomically by a background
// compactor, a small mutable delta receiving writes, and a tombstone set
// hiding deleted documents until the next compaction folds them out.
//
// A DynamicSearcher opened with OpenDynamicSearcher is durable: every
// mutation is appended to a per-shard write-ahead log before it becomes
// visible, compactions persist the rebuilt base as a snapshot, and
// reopening the same directory recovers the exact live corpus from
// snapshot + WAL tail — including after a crash.
//
// All methods are safe for concurrent use by any number of goroutines.
type DynamicSearcher struct {
	tiers  []*dynamic.Tier
	tau    int
	nextID atomic.Int64
	unlock func() error // releases the directory lock; nil when volatile

	closeOnce sync.Once
	closeErr  error
}

// dynamicMeta is the per-directory manifest that pins the parameters a
// durable index was created with.
type dynamicMeta struct {
	Version int `json:"version"`
	Tau     int `json:"tau"`
	Shards  int `json:"shards"`
}

const dynamicMetaName = "meta.json"

// NewDynamicSearcher creates an in-memory dynamic searcher seeded with
// corpus (which may be nil to start empty). Corpus document i gets global
// id i. Updates are not persisted; use OpenDynamicSearcher for
// durability. Accepts WithShards, WithCompactThreshold, WithSelection and
// WithVerification.
func NewDynamicSearcher(corpus []string, tau int, opts ...Option) (*DynamicSearcher, error) {
	return openDynamic("", corpus, tau, opts)
}

// OpenDynamicSearcher creates or reopens a durable dynamic searcher
// rooted at directory dir. A fresh directory is seeded with corpus
// (document i gets global id i) and records tau and the shard count in a
// manifest; reopening an existing directory recovers the index from the
// per-shard base snapshots and WAL tails, ignores corpus, and requires
// tau (and WithShards, when given) to match the manifest.
func OpenDynamicSearcher(dir string, corpus []string, tau int, opts ...Option) (*DynamicSearcher, error) {
	if dir == "" {
		return nil, errors.New("passjoin: empty dynamic index directory")
	}
	return openDynamic(dir, corpus, tau, opts)
}

func openDynamic(dir string, corpus []string, tau int, opts []Option) (*DynamicSearcher, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	n := cfg.shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	seed := true
	var unlock func() error
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// One process per directory: concurrent writers would interleave
		// WAL records and race snapshot renames.
		var lerr error
		if unlock, lerr = dynamic.LockDir(dir); lerr != nil {
			return nil, lerr
		}
		fail := func(err error) (*DynamicSearcher, error) {
			unlock()
			return nil, err
		}
		metaPath := filepath.Join(dir, dynamicMetaName)
		if raw, err := os.ReadFile(metaPath); err == nil {
			var meta dynamicMeta
			if err := json.Unmarshal(raw, &meta); err != nil {
				return fail(fmt.Errorf("passjoin: corrupt dynamic manifest %s: %w", metaPath, err))
			}
			if meta.Tau != tau {
				return fail(fmt.Errorf("passjoin: dynamic index at %s was created with tau=%d, not %d", dir, meta.Tau, tau))
			}
			if cfg.shards > 0 && meta.Shards != cfg.shards {
				return fail(fmt.Errorf("passjoin: dynamic index at %s was created with %d shards, not %d", dir, meta.Shards, cfg.shards))
			}
			n = meta.Shards
			seed = false
		} else if !os.IsNotExist(err) {
			return fail(err)
		}
	}

	ds := &DynamicSearcher{tiers: make([]*dynamic.Tier, n), tau: tau, unlock: unlock}
	// Every return below this point must not leak what is already open:
	// tier WAL descriptors and the directory lock.
	opened := false
	defer func() {
		if opened {
			return
		}
		for _, t := range ds.tiers {
			if t != nil {
				t.Close()
			}
		}
		if unlock != nil {
			unlock()
		}
	}()
	for s := 0; s < n; s++ {
		tcfg := dynamic.Config{
			Tau:              tau,
			Selection:        cfg.sel.internal(),
			Verification:     cfg.ver.internal(),
			CompactThreshold: cfg.compactThreshold,
			Fsync:            cfg.walSync,
		}
		if hook := cfg.mutHook; hook != nil {
			tcfg.OnApply = func(op dynamic.Op) {
				hook(Mutation{Del: op.Del, ID: int(op.ID), Doc: op.Doc})
			}
		}
		if cfg.logger != nil {
			tcfg.Logger = cfg.logger.With("shard", s)
		}
		if dir != "" {
			tcfg.WALPath = filepath.Join(dir, fmt.Sprintf("shard-%d.wal", s))
			tcfg.SnapPath = filepath.Join(dir, fmt.Sprintf("shard-%d.snap", s))
		}
		t, err := dynamic.Open(tcfg)
		if err != nil {
			return nil, err
		}
		ds.tiers[s] = t
	}
	if seed {
		// No manifest, so this must be a truly fresh directory: shard
		// files without one mean a crash interrupted a previous seeding
		// (the manifest is written last) and silently re-seeding or
		// adopting the partial state could lose documents.
		if dir != "" {
			for s, t := range ds.tiers {
				if t.MaxID() >= 0 {
					return nil, fmt.Errorf("passjoin: %s has shard data (shard %d) but no %s — partially initialized index, remove the directory to re-seed", dir, s, dynamicMetaName)
				}
			}
		}
		for s := 0; s < n; s++ {
			var gids []int64
			var docs []string
			for i := s; i < len(corpus); i += n {
				gids = append(gids, int64(i))
				docs = append(docs, corpus[i])
			}
			if err := ds.tiers[s].Bootstrap(gids, docs); err != nil {
				return nil, err
			}
		}
		// The manifest commits the seeding: written only after every
		// shard bootstrapped successfully.
		if dir != "" {
			meta := dynamicMeta{Version: 1, Tau: tau, Shards: n}
			raw, _ := json.Marshal(meta)
			if err := os.WriteFile(filepath.Join(dir, dynamicMetaName), raw, 0o644); err != nil {
				return nil, err
			}
		}
	}
	next := int64(0)
	for _, t := range ds.tiers {
		if m := t.MaxID(); m+1 > next {
			next = m + 1
		}
	}
	ds.nextID.Store(next)
	opened = true
	return ds, nil
}

// Insert adds doc and returns its stable global id. The document is
// immediately visible to Search; with durability it is WAL-logged before
// Insert returns.
func (ds *DynamicSearcher) Insert(doc string) (int, error) {
	gid := ds.nextID.Add(1) - 1
	if err := ds.tiers[gid%int64(len(ds.tiers))].Insert(gid, doc); err != nil {
		return 0, err
	}
	return int(gid), nil
}

// Delete removes the document with the given id. It reports whether the
// id named a live document; deleting an absent or already-deleted id is
// a no-op returning false.
func (ds *DynamicSearcher) Delete(id int) (bool, error) {
	if id < 0 {
		return false, nil
	}
	gid := int64(id)
	return ds.tiers[gid%int64(len(ds.tiers))].Delete(gid)
}

// Mutation is one logical write applied to a DynamicSearcher: an insert
// of Doc under ID, or (Del set) a delete of ID. It is the unit the
// mutation hook observes and Apply replays — the change-data-capture and
// replication currency of the dynamic index.
type Mutation struct {
	Del bool
	ID  int
	Doc string
}

// Apply applies one replicated mutation idempotently by document id: an
// insert whose id the searcher already knows is skipped, as is a delete
// of an absent or already-deleted id — the same per-id discipline WAL
// replay uses, so re-applying any already-applied prefix of a replication
// stream is harmless. The id allocator is advanced past m.ID, so a
// follower promoted to accept writes never re-issues a replicated id.
// Applied mutations are WAL-logged (when durable), observed by the
// mutation hook, and trigger background compaction exactly like local
// writes. It reports whether the mutation changed the index.
func (ds *DynamicSearcher) Apply(m Mutation) (bool, error) {
	if m.ID < 0 {
		return false, fmt.Errorf("passjoin: negative document id %d", m.ID)
	}
	gid := int64(m.ID)
	applied, err := ds.tiers[gid%int64(len(ds.tiers))].Apply(dynamic.Op{Del: m.Del, ID: gid, Doc: m.Doc})
	if err != nil {
		return false, err
	}
	for {
		cur := ds.nextID.Load()
		if gid+1 <= cur || ds.nextID.CompareAndSwap(cur, gid+1) {
			break
		}
	}
	return applied, nil
}

// NextID returns the id the next local Insert would assign — the
// exclusive upper bound of the id space this searcher has seen (inserts,
// WAL replay and Apply all advance it). A cluster coordinator reads it
// from every member to bootstrap a global allocator that never collides
// with an id any member already issued.
func (ds *DynamicSearcher) NextID() int {
	return int(ds.nextID.Load())
}

// All iterates over every live document as (id, doc) pairs, shard by
// shard, in no particular order. Each shard's contents are captured
// atomically under its read lock before being yielded, so the consumer
// may mutate the index from inside the loop; concurrent writes that race
// the capture of a later shard may or may not appear. The replication
// source uses it to cut follower bootstrap snapshots.
func (ds *DynamicSearcher) All() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		for _, t := range ds.tiers {
			gids, docs := t.Live()
			for i, gid := range gids {
				if !yield(int(gid), docs[i]) {
					return
				}
			}
		}
	}
}

// Search returns every live document within the threshold of q — the
// build threshold, or any smaller per-query threshold given with QueryTau
// — sorted by ascending distance (ties by document id). Safe for
// concurrent use, including concurrently with Insert/Delete/Compact.
func (ds *DynamicSearcher) Search(q string, opts ...QueryOption) []Match {
	qc := resolveQuery(ds.tau, opts)
	if qc.empty {
		return nil
	}
	return ds.search(q, qc)
}

// SearchTopK returns the k closest live documents to q among those within
// the threshold, sorted by ascending distance (ties by document id).
// k <= 0 returns nil.
//
// Deprecated: use Search(q, QueryTopK(k)), which composes with the other
// per-query options.
func (ds *DynamicSearcher) SearchTopK(q string, k int) []Match {
	return ds.Search(q, QueryTopK(k))
}

// SearchSeq streams matches for q tier by tier, in no particular order
// (use Search for ranked output; with QueryTopK the ranked matches are
// materialized first and yielded in order). Each shard's base+delta merge
// is materialized under the shard's read lock before its matches are
// yielded, so consumers may mutate the index from inside the loop;
// breaking out of the loop skips the remaining shards entirely. Safe for
// concurrent use.
func (ds *DynamicSearcher) SearchSeq(q string, opts ...QueryOption) iter.Seq[Match] {
	qc := resolveQuery(ds.tau, opts)
	return func(yield func(Match) bool) {
		if qc.empty {
			return
		}
		if qc.topk > 0 {
			for _, m := range ds.search(q, qc) {
				if !yield(m) {
					return
				}
			}
			return
		}
		remaining := qc.limit // 0 = unlimited
		for _, t := range ds.tiers {
			hits := t.SearchOpt(q, core.QueryOpts{Tau: qc.tau, Limit: remaining, Trace: qc.trace})
			for _, h := range hits {
				if !yield(Match{ID: int(h.ID), Dist: h.Dist}) {
					return
				}
			}
			if qc.limit > 0 {
				remaining -= len(hits)
				if remaining <= 0 {
					return
				}
			}
		}
	}
}

// search probes the tiers one after another on the caller's goroutine — a
// short-string probe costs less than handing it to another goroutine — and
// ranks the union. A trace is additive, so the tiers share the query's.
func (ds *DynamicSearcher) search(q string, qc queryConfig) []Match {
	o := qc.coreOpts()
	var out []Match
	for _, t := range ds.tiers {
		for _, h := range t.SearchOpt(q, o) {
			out = append(out, Match{ID: int(h.ID), Dist: h.Dist})
		}
	}
	return qc.finish(out)
}

// Get returns the live document stored under id.
func (ds *DynamicSearcher) Get(id int) (string, bool) {
	if id < 0 {
		return "", false
	}
	gid := int64(id)
	return ds.tiers[gid%int64(len(ds.tiers))].Get(gid)
}

// At returns the live document stored under id, or "" when the id is
// unknown or deleted. (Unlike the static searchers, dynamic ids are not
// dense positions; prefer Get when the distinction matters.)
func (ds *DynamicSearcher) At(id int) string {
	doc, _ := ds.Get(id)
	return doc
}

// Len returns the number of live documents.
func (ds *DynamicSearcher) Len() int {
	total := 0
	for _, t := range ds.tiers {
		total += t.Len()
	}
	return total
}

// Tau returns the searcher's threshold.
func (ds *DynamicSearcher) Tau() int { return ds.tau }

// NumShards returns the number of dynamic shards.
func (ds *DynamicSearcher) NumShards() int { return len(ds.tiers) }

// Compact synchronously compacts every shard: deltas and tombstones are
// folded into fresh frozen bases (and, when durable, the base snapshots
// are rewritten and the WALs truncated to their tails).
func (ds *DynamicSearcher) Compact() error {
	for _, t := range ds.tiers {
		if err := t.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a point-in-time aggregate of the per-shard dynamic
// counters: live documents, delta sizes, tombstones, compactions, WAL
// footprint, and the frozen-base figures.
func (ds *DynamicSearcher) Stats() Stats {
	merged := &metrics.Stats{}
	for _, t := range ds.tiers {
		ts := t.Stats()
		merged.Add(&metrics.Stats{
			Strings:       int64(ts.Live),
			DeltaStrings:  int64(ts.DeltaDocs),
			Tombstones:    int64(ts.Tombstones),
			Compactions:   ts.Compactions,
			CompactErrors: ts.CompactErrors,
			WALBytes:      ts.WALBytes,
			WALRecords:    ts.WALRecords,
			FrozenBytes:   ts.FrozenBytes,
			FrozenEntries: ts.FrozenEntries,
		})
	}
	var st Stats
	st.inner = merged
	st.fill()
	return st
}

// Err returns the most recent background-compaction failure across the
// shards, if any. A durable index whose compactions fail keeps serving
// and accepting writes (the WAL still grows), but the condition deserves
// monitoring — the server surfaces it on /v1/stats.
func (ds *DynamicSearcher) Err() error {
	for _, t := range ds.tiers {
		if err := t.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close waits for in-flight background compactions, syncs and closes the
// per-shard WALs, releases the directory lock, and surfaces any
// background-compaction error. The searcher must not be used afterwards.
func (ds *DynamicSearcher) Close() error {
	ds.closeOnce.Do(func() {
		for _, t := range ds.tiers {
			if err := t.Close(); err != nil && ds.closeErr == nil {
				ds.closeErr = err
			}
		}
		if ds.unlock != nil {
			if err := ds.unlock(); err != nil && ds.closeErr == nil {
				ds.closeErr = err
			}
		}
	})
	return ds.closeErr
}
