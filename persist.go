package passjoin

import (
	"io"

	"passjoin/internal/persist"
)

// Searcher persistence: a compact binary snapshot of the indexed corpus and
// its threshold. The codec — format layout, checksumming, and validation —
// lives in internal/persist and is shared with the dynamic tier's base
// snapshots (internal/dynamic); this file binds it to the public Searcher
// types.
//
// A snapshot is a corpus: both static searchers write the same file, both
// readers load either's, and a reader builds the index exactly as the
// constructor of its type does — ReadShardedSearcherFrom with WithShards
// workers. Files of earlier releases that also carry a frozen index open the
// same way; the stored index is checked and skipped.

// WriteTo serializes the searcher's corpus and threshold (PJIX v3: releases
// before it read versions 1 and 2 only and reject the file by its version).
// It implements io.WriterTo.
func (s *Searcher) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSnapshot(w, s.tau, s.Len(), s.At)
}

// ReadSearcherFrom deserializes a searcher written by WriteTo, by this or
// any earlier release, and builds its index as NewSearcher would. Options
// apply to the loaded searcher (the threshold comes from the snapshot).
func ReadSearcherFrom(r io.Reader, opts ...Option) (*Searcher, error) {
	corpus, tau, cfg, err := readSnapshot(r, opts)
	if err != nil {
		return nil, err
	}
	return buildSearcher(corpus, tau, cfg, 1)
}

// readSnapshot reads a snapshot's corpus and threshold and resolves opts
// against that threshold.
func readSnapshot(r io.Reader, opts []Option) (corpus []string, tau int, cfg config, err error) {
	if corpus, tau, err = persist.ReadSnapshot(r); err == nil {
		cfg, err = buildConfig(tau, opts)
	}
	return corpus, tau, cfg, err
}

// WriteTo serializes the sharded searcher's corpus and threshold (PJIX v3) —
// the same snapshot Searcher.WriteTo writes. It implements io.WriterTo.
func (ss *ShardedSearcher) WriteTo(w io.Writer) (int64, error) {
	return ss.s.WriteTo(w)
}

// ReadShardedSearcherFrom deserializes a snapshot written by either WriteTo,
// by this or any earlier release, and builds its index with WithShards
// workers, as NewShardedSearcher would. Options apply to the loaded
// searcher; the threshold comes from the snapshot.
func ReadShardedSearcherFrom(r io.Reader, opts ...Option) (*ShardedSearcher, error) {
	corpus, tau, cfg, err := readSnapshot(r, opts)
	if err != nil {
		return nil, err
	}
	return buildSharded(corpus, tau, cfg)
}
