package passjoin

import (
	"passjoin/internal/metrics"
)

// Stats reports instrumentation counters. Attach with WithStats to a join,
// a Matcher or a searcher build; the struct is overwritten when the call
// returns. DynamicSearcher.Stats returns one instead.
type Stats struct {
	// Strings is the number of input strings scanned.
	Strings int64
	// ShortStrings counts strings of length <= tau, which bypass the
	// segment index (they cannot be split into tau+1 non-empty segments).
	ShortStrings int64
	// SelectedSubstrings counts substrings enumerated by the selection
	// method (Figure 12's metric).
	SelectedSubstrings int64
	// Lookups / LookupHits count inverted-index probes and non-empty hits.
	Lookups    int64
	LookupHits int64
	// Candidates counts candidate occurrences scanned from inverted lists;
	// UniqueCandidates counts deduplicated pairs.
	Candidates       int64
	UniqueCandidates int64
	// SigRejects counts candidate occurrences dropped by the one-word
	// histogram signature filter in front of verification; Verifications,
	// DPCells, EarlyTerminations and SharedRows count only the survivors.
	SigRejects int64
	// Verifications counts verifier invocations.
	Verifications int64
	// DPCells counts dynamic-programming cells computed.
	DPCells int64
	// EarlyTerminations counts verifications stopped by the
	// expected-edit-distance rule (Lemma 4).
	EarlyTerminations int64
	// SharedRows counts DP rows reused via common-prefix sharing (§5.3).
	SharedRows int64
	// Results is the number of similar pairs found.
	Results int64
	// IndexBytes approximates the peak retained size of the segment index
	// (Table 3's metric); IndexEntries is its posting count.
	IndexBytes   int64
	IndexEntries int64
	// FrozenBytes is the exact retained size of the frozen index a Searcher
	// or a DynamicSearcher's base serves from; FrozenEntries is its posting
	// count. Zero for runs that never seal (joins, Matcher).
	FrozenBytes   int64
	FrozenEntries int64
	// Dynamic-index counters, populated by DynamicSearcher.Stats and zero
	// everywhere else: documents in the mutable delta (live or
	// tombstoned), deletes pending compaction, completed and failed
	// compactions, and the write-ahead-log footprint.
	DeltaDocs     int64
	Tombstones    int64
	Compactions   int64
	CompactErrors int64
	WALBytes      int64
	WALRecords    int64

	inner *metrics.Stats
}

// reset prepares the internal sink for a fresh run.
func (s *Stats) reset() *metrics.Stats {
	s.inner = &metrics.Stats{}
	return s.inner
}

// fill copies the internal counters into the public fields.
func (s *Stats) fill() {
	if s == nil || s.inner == nil {
		return
	}
	in := s.inner
	s.Strings = in.Strings
	s.ShortStrings = in.ShortStrings
	s.SelectedSubstrings = in.SelectedSubstrings
	s.Lookups = in.Lookups
	s.LookupHits = in.LookupHits
	s.Candidates = in.Candidates
	s.UniqueCandidates = in.UniqueCandidates
	s.SigRejects = in.SigRejects
	s.Verifications = in.Verifications
	s.DPCells = in.DPCells
	s.EarlyTerminations = in.EarlyTerms
	s.SharedRows = in.SharedRows
	s.Results = in.Results
	s.IndexBytes = in.IndexBytes
	s.IndexEntries = in.IndexEntries
	s.FrozenBytes = in.FrozenBytes
	s.FrozenEntries = in.FrozenEntries
	s.DeltaDocs = in.DeltaStrings
	s.Tombstones = in.Tombstones
	s.Compactions = in.Compactions
	s.CompactErrors = in.CompactErrors
	s.WALBytes = in.WALBytes
	s.WALRecords = in.WALRecords
}

// String renders the non-zero counters on one line.
func (s *Stats) String() string {
	if s == nil {
		return "<nil stats>"
	}
	if s.inner != nil {
		return s.inner.String()
	}
	return (&metrics.Stats{
		Strings:            s.Strings,
		ShortStrings:       s.ShortStrings,
		SelectedSubstrings: s.SelectedSubstrings,
		Lookups:            s.Lookups,
		LookupHits:         s.LookupHits,
		Candidates:         s.Candidates,
		UniqueCandidates:   s.UniqueCandidates,
		SigRejects:         s.SigRejects,
		Verifications:      s.Verifications,
		DPCells:            s.DPCells,
		EarlyTerms:         s.EarlyTerminations,
		SharedRows:         s.SharedRows,
		Results:            s.Results,
		IndexBytes:         s.IndexBytes,
		IndexEntries:       s.IndexEntries,
		FrozenBytes:        s.FrozenBytes,
		FrozenEntries:      s.FrozenEntries,
		DeltaStrings:       s.DeltaDocs,
		Tombstones:         s.Tombstones,
		Compactions:        s.Compactions,
		CompactErrors:      s.CompactErrors,
		WALBytes:           s.WALBytes,
		WALRecords:         s.WALRecords,
	}).String()
}
