package passjoin

import (
	"io"

	"passjoin/internal/core"
	"passjoin/internal/persist"
)

// Searcher persistence: a compact binary snapshot of the indexed corpus,
// threshold, and (from version 2) the frozen segment index itself. The codec —
// format layout, checksumming, and validation — lives in internal/persist
// and is shared with the dynamic tier's base snapshots (internal/dynamic);
// this file binds it to the public Searcher types.
//
// Both static searchers write the same snapshot and both readers load
// either's: WithShards is a load-time choice that only matters when the
// reader has to rebuild (a corpus-only or version 1 snapshot).

// WriteTo serializes the searcher's corpus, threshold, and frozen index
// (PJIX v3: releases before it read versions 1 and 2 only and reject the
// file by its version). It implements io.WriterTo.
func (s *Searcher) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSnapshot(w, s.tau, s.Len(), s.At, s.m.FrozenIndex())
}

// ReadSearcherFrom deserializes a searcher written by WriteTo, by this or
// any earlier release. Version 2 and 3 snapshots restore the frozen index
// directly — the cold-start cost is reading postings, not re-partitioning
// and re-indexing the corpus; version 1 and corpus-only snapshots rebuild
// the index. Options apply to
// the loaded searcher (the threshold comes from the snapshot).
func ReadSearcherFrom(r io.Reader, opts ...Option) (*Searcher, error) {
	s, _, err := readSearcher(r, opts, false)
	return s, err
}

// readSearcher loads a snapshot into a Searcher and returns the build
// worker count the options resolve to (one, unless sharded) — which it
// builds with when the snapshot carries no frozen index.
func readSearcher(r io.Reader, opts []Option, sharded bool) (*Searcher, int, error) {
	corpus, tau, fz, err := persist.ReadSnapshot(r)
	if err != nil {
		return nil, 0, err
	}
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, 0, err
	}
	n := 1
	if sharded {
		n = cfg.buildWorkers(len(corpus))
	}
	if fz == nil {
		s, err := buildSearcher(corpus, tau, cfg, n)
		return s, n, err
	}
	inner := cfg.coreOptions(tau)
	m, err := core.NewSealedMatcher(tau, inner.Selection, inner.Verification, inner.Stats, corpus, fz)
	if err != nil {
		return nil, 0, err
	}
	cfg.stats.fill()
	return newSearcher(m, tau), n, nil
}

// WriteTo serializes the sharded searcher's corpus, threshold, and frozen
// index (PJIX v3) — the same snapshot Searcher.WriteTo writes. It
// implements io.WriterTo.
func (ss *ShardedSearcher) WriteTo(w io.Writer) (int64, error) {
	return ss.s.WriteTo(w)
}

// ReadShardedSearcherFrom deserializes a snapshot written by either
// WriteTo. A frozen section is restored as it is; corpus-only snapshots
// (written by earlier releases' ShardedSearcher.WriteTo) and version 1
// snapshots rebuild the index with WithShards workers. Options apply to
// the loaded searcher; the threshold comes from the snapshot.
func ReadShardedSearcherFrom(r io.Reader, opts ...Option) (*ShardedSearcher, error) {
	s, workers, err := readSearcher(r, opts, true)
	if err != nil {
		return nil, err
	}
	return &ShardedSearcher{s: s, workers: workers}, nil
}
