package passjoin

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"passjoin/internal/dynamic"
	"passjoin/internal/persist"
)

// DynamicSearcher answers approximate string search queries like
// Searcher, but accepts inserts and deletes while serving — the
// live-update counterpart of the static searchers. Documents get stable
// global ids from a monotone counter. Like the static searchers, the index
// is not partitioned by id: it is one two-tier dynamic index
// (internal/dynamic) — a frozen CSR base swapped atomically by a
// background compactor, a small mutable delta receiving writes, and one
// tombstone bit per row hiding deleted documents until the next compaction
// folds them out — whose base is built by WithShards workers.
//
// A DynamicSearcher opened with OpenDynamicSearcher is durable: every
// mutation is appended to a write-ahead log before it becomes visible,
// compactions persist the rebuilt base as a snapshot, and reopening the
// same directory recovers the exact live corpus from snapshot + WAL tail —
// including after a crash.
//
// All methods are safe for concurrent use by any number of goroutines.
type DynamicSearcher struct {
	tier    *dynamic.Tier
	tau     int
	workers int
	unlock  func() error // releases the directory lock; nil when volatile

	closeOnce sync.Once
	closeErr  error
}

// dynamicMeta is the per-directory manifest that pins the parameters a
// durable index was created with. This build writes Shards 1; older builds
// split the index by id over Shards partitions, which Open converts.
type dynamicMeta struct {
	Version int `json:"version"`
	Tau     int `json:"tau"`
	Shards  int `json:"shards"`
}

const dynamicMetaName = "meta.json"

// NewDynamicSearcher creates an in-memory dynamic searcher seeded with
// corpus (which may be nil to start empty). Corpus document i gets global
// id i. Updates are not persisted; use OpenDynamicSearcher for
// durability. Accepts WithShards, WithCompactThreshold, WithLogger and
// WithMutationHook.
func NewDynamicSearcher(corpus []string, tau int, opts ...Option) (*DynamicSearcher, error) {
	return openDynamic("", corpus, tau, opts)
}

// OpenDynamicSearcher creates or reopens a durable dynamic searcher
// rooted at directory dir. A fresh directory is seeded with corpus
// (document i gets global id i) and records tau in a manifest; reopening
// an existing directory recovers the index from the base snapshot and WAL
// tail, ignores corpus, and requires tau to match the manifest. WithShards
// may differ from open to open. A directory an older build split into
// several id partitions is converted to the one-partition layout before
// the first write: the partitions are folded together, compacted, the
// manifest rewritten and the other partitions' files removed.
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
	workers := cfg.workers()
	tcfg := dynamic.Config{
		Tau:              tau,
		CompactThreshold: cfg.compactThreshold,
		Workers:          workers,
		Fsync:            cfg.walSync,
		Logger:           cfg.logger,
	}
	if hook := cfg.mutHook; hook != nil {
		tcfg.OnApply = func(op dynamic.Op) {
			hook(Mutation{Del: op.Del, ID: int(op.ID), Doc: op.Doc})
		}
	}
	var unlock func() error
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// One process per directory: concurrent writers would interleave
		// WAL records and race snapshot renames.
		if unlock, err = dynamic.LockDir(dir); err != nil {
			return nil, err
		}
		tcfg.SnapPath, tcfg.WALPath = shardPaths(dir, 0)
	}
	shards, err := readManifest(dir, tau)
	var t *dynamic.Tier
	if err == nil {
		t, err = dynamic.Open(tcfg)
	}
	if err == nil {
		if err = settle(t, dir, shards, tau, corpus); err != nil {
			t.Close()
		}
	}
	if err != nil {
		if unlock != nil {
			unlock()
		}
		return nil, err
	}
	return &DynamicSearcher{tier: t, tau: tau, workers: workers, unlock: unlock}, nil
}

// shardPaths names the base snapshot and the WAL of partition k of dir;
// this build uses partition 0 only.
func shardPaths(dir string, k int) (snap, wal string) {
	base := filepath.Join(dir, fmt.Sprintf("shard-%d", k))
	return base + ".snap", base + ".wal"
}

// readManifest returns the partition count dir's manifest records — 0 when
// dir is "" or has no manifest yet — after checking it was created with tau.
func readManifest(dir string, tau int) (int, error) {
	if dir == "" {
		return 0, nil
	}
	path := filepath.Join(dir, dynamicMetaName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var meta dynamicMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return 0, fmt.Errorf("passjoin: corrupt dynamic manifest %s: %w", path, err)
	}
	if meta.Shards < 1 {
		return 0, fmt.Errorf("passjoin: corrupt dynamic manifest %s: %d shards", path, meta.Shards)
	}
	if meta.Tau != tau {
		return 0, fmt.Errorf("passjoin: dynamic index at %s was created with tau=%d, not %d", dir, meta.Tau, tau)
	}
	return meta.Shards, nil
}

// settle brings a just-opened tier to a committed one-partition state
// before anything can write to it. Without a manifest (shards == 0) it
// seeds the tier from corpus; with one naming several partitions it folds
// partitions 1..shards-1 into the tier and compacts the union into
// partition 0's files. The manifest, written atomically, commits either,
// and only then are the other partitions' files removed — also when a
// crash cut an earlier removal short. Up to the manifest every step is
// idempotent per id, so a crash anywhere reopens to the same documents.
func settle(t *dynamic.Tier, dir string, shards, tau int, corpus []string) error {
	switch {
	case shards == 0 && dir != "" && t.MaxID() >= 0:
		// Shard data without a manifest means a crash interrupted a
		// previous seeding (the manifest is written last); silently
		// re-seeding or adopting the partial state could lose documents.
		return fmt.Errorf("passjoin: %s has shard data but no %s — partially initialized index, remove the directory to re-seed", dir, dynamicMetaName)
	case shards == 0:
		gids := make([]int64, len(corpus))
		for i := range gids {
			gids[i] = int64(i)
		}
		if err := t.Bootstrap(gids, slices.Clone(corpus)); err != nil {
			return err
		}
	case shards > 1:
		for k := 1; k < shards; k++ {
			if err := t.Absorb(shardPaths(dir, k)); err != nil {
				return err
			}
		}
		if err := t.Compact(); err != nil {
			return err
		}
	}
	if dir == "" {
		return nil
	}
	if shards != 1 {
		raw, err := json.Marshal(dynamicMeta{Version: 1, Tau: tau, Shards: 1})
		if err != nil {
			return err
		}
		err = persist.WriteFileAtomic(filepath.Join(dir, dynamicMetaName), func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		})
		if err != nil {
			return err
		}
	}
	stray, err := filepath.Glob(filepath.Join(dir, "shard-[1-9]*"))
	for _, path := range stray {
		err = errors.Join(err, os.Remove(path))
	}
	return err
}

// Insert adds doc and returns its stable global id. The document is
// immediately visible to Search; with durability it is WAL-logged before
// Insert returns.
func (ds *DynamicSearcher) Insert(doc string) (int, error) {
	gid, err := ds.tier.Insert(doc)
	if err != nil {
		return 0, err
	}
	return int(gid), nil
}

// Delete removes the document with the given id. It reports whether the
// id named a live document; deleting an absent or already-deleted id is
// a no-op returning false.
func (ds *DynamicSearcher) Delete(id int) (bool, error) {
	return ds.tier.Delete(int64(id))
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
// stream is harmless. An insert advances the id allocator past m.ID, so a
// follower promoted to accept writes never re-issues a replicated id.
// Applied mutations are WAL-logged (when durable), observed by the
// mutation hook, and trigger background compaction exactly like local
// writes. An id outside [0, 2^62-1] is refused with an error wrapping
// strconv.ErrRange, before anything is logged. It reports whether the
// mutation changed the index.
func (ds *DynamicSearcher) Apply(m Mutation) (bool, error) {
	return ds.tier.Apply(dynamic.Op{Del: m.Del, ID: int64(m.ID), Doc: m.Doc})
}

// NextID returns the id the next local Insert would assign — the
// exclusive upper bound of the id space this searcher has seen (inserts,
// WAL replay and Apply all advance it). A cluster coordinator reads it
// from every member to bootstrap a global allocator that never collides
// with an id any member already issued.
func (ds *DynamicSearcher) NextID() int {
	return int(ds.tier.MaxID() + 1)
}

// All iterates over every live document as (id, doc) pairs, in no
// particular order. The contents are captured atomically under the read
// lock before the first pair is yielded, so the consumer may mutate the
// index from inside the loop. The replication source uses it to cut
// follower bootstrap snapshots.
func (ds *DynamicSearcher) All() iter.Seq2[int, string] {
	return func(yield func(int, string) bool) {
		gids, docs := ds.tier.Live()
		for i, gid := range gids {
			if !yield(int(gid), docs[i]) {
				return
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

// SearchSeq streams the matches Search returns for q, in the same order.
// The base+delta merge is materialized under the read lock before the
// first match is yielded, so consumers may mutate the index from inside
// the loop. Safe for concurrent use.
func (ds *DynamicSearcher) SearchSeq(q string, opts ...QueryOption) iter.Seq[Match] {
	qc := resolveQuery(ds.tau, opts)
	return func(yield func(Match) bool) {
		if qc.empty {
			return
		}
		for _, m := range ds.search(q, qc) {
			if !yield(m) {
				return
			}
		}
	}
}

// search probes the tier on the caller's goroutine — a short-string probe
// costs less than handing it to another goroutine — and ranks the hits.
func (ds *DynamicSearcher) search(q string, qc queryConfig) []Match {
	hits := ds.tier.SearchOpt(q, qc.coreOpts())
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{ID: int(h.ID), Dist: h.Dist}
	}
	return qc.finish(out)
}

// Get returns the live document stored under id.
func (ds *DynamicSearcher) Get(id int) (string, bool) {
	return ds.tier.Get(int64(id))
}

// At returns the live document stored under id, or "" when the id is
// unknown or deleted. (Unlike the static searchers, dynamic ids are not
// dense positions; prefer Get when the distinction matters.)
func (ds *DynamicSearcher) At(id int) string {
	doc, _ := ds.Get(id)
	return doc
}

// Len returns the number of live documents.
func (ds *DynamicSearcher) Len() int { return ds.tier.Len() }

// Tau returns the searcher's threshold.
func (ds *DynamicSearcher) Tau() int { return ds.tau }

// NumShards returns the resolved WithShards value: the number of workers
// that build the frozen base at seeding, at reopen and at every
// compaction. Queries and ids do not depend on it.
func (ds *DynamicSearcher) NumShards() int { return ds.workers }

// Compact synchronously folds the delta and the tombstones into a fresh
// frozen base (and, when durable, rewrites the base snapshot and cuts the
// WAL down to its tail).
func (ds *DynamicSearcher) Compact() error { return ds.tier.Compact() }

// Stats returns a point-in-time snapshot of the dynamic counters: live
// documents, delta size, tombstones, compactions, WAL footprint, and the
// frozen-base figures.
func (ds *DynamicSearcher) Stats() Stats { return Stats(ds.tier.Stats()) }

// Err returns the most recent background-compaction failure, if any. A
// durable index whose compactions fail keeps serving and accepting writes
// (the WAL still grows), but the condition deserves monitoring — the
// server surfaces it on /v1/stats.
func (ds *DynamicSearcher) Err() error { return ds.tier.Err() }

// Close waits for an in-flight background compaction, syncs and closes the
// WAL, releases the directory lock, and surfaces any background-compaction
// error. The searcher must not be used afterwards.
func (ds *DynamicSearcher) Close() error {
	ds.closeOnce.Do(func() {
		ds.closeErr = ds.tier.Close()
		if ds.unlock != nil {
			ds.closeErr = errors.Join(ds.closeErr, ds.unlock())
		}
	})
	return ds.closeErr
}
