package passjoin

import (
	"io"

	"passjoin/internal/persist"
)

// Searcher persistence: a compact binary snapshot of the indexed corpus and
// its threshold. The codec — format layout, checksumming, and validation —
// lives in internal/persist and is shared with the dynamic tier's base
// snapshots (internal/dynamic); this file binds it to Searcher.
//
// A snapshot is a corpus: a reader builds the index exactly as NewSearcher
// does, with WithShards workers. Files of earlier releases that also carry
// a frozen index open the same way; the stored index is checked and
// skipped.

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
	corpus, tau, err := persist.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	return buildSearcher(corpus, tau, cfg)
}
