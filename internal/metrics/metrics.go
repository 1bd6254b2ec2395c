// Package metrics provides lightweight counters shared by the Pass-Join
// engine, the baselines and the experiment harness. Counters are plain
// int64 fields; callers that do not need instrumentation pass a nil *Stats
// and every recording helper tolerates that.
package metrics

import (
	"fmt"
	"strings"
)

// Stats accumulates per-run instrumentation. All counts are totals over a
// single join (or probe batch). A nil *Stats is valid everywhere and records
// nothing.
type Stats struct {
	// Strings is the number of strings scanned by the join loop.
	Strings int64
	// ShortStrings counts strings with length <= tau that bypass the
	// partition index (they cannot be split into tau+1 non-empty segments).
	ShortStrings int64
	// SelectedSubstrings counts substrings enumerated by the selection
	// method, i.e. |W(s,l)| summed over every probed (s, l).
	SelectedSubstrings int64
	// Lookups counts inverted-index probes; LookupHits those that found a
	// non-empty list.
	Lookups    int64
	LookupHits int64
	// Candidates counts candidate pair occurrences (one per inverted-list
	// element scanned). UniqueCandidates counts pairs after deduplication,
	// and only the whole-string verifiers (and the baselines) count it: a
	// whole-string verdict settles a pair for the probe, so the pair is
	// stamped and counted once. The extension verifiers retry a rejected
	// pair at every alignment and never count it, so it reads 0 under the
	// default options.
	Candidates       int64
	UniqueCandidates int64
	// SigRejects counts candidate occurrences dropped by the histogram
	// signature filter — verify.SigDist of the two strings' verify.SigOf
	// words exceeding twice the threshold — before any verifier, stamp or
	// string was touched; SigRejects + Verifications <= Candidates.
	SigRejects int64
	// Verifications counts verifier invocations (a pair verified through the
	// extension method counts once per attempted alignment).
	Verifications int64
	// DPCells counts dynamic-programming matrix cells computed across all
	// verifications.
	DPCells int64
	// EarlyTerms counts verifications cut short by an early-termination rule.
	EarlyTerms int64
	// SharedRows counts DP rows skipped thanks to common-prefix sharing.
	SharedRows int64
	// Results is the number of similar pairs reported.
	Results int64
	// IndexBytes is the approximate retained size of the similarity index in
	// bytes (for Table 3).
	IndexBytes int64
	// IndexEntries is the number of postings stored in the index.
	IndexEntries int64
	// FrozenBytes is the exact retained size of the frozen (CSR) form of
	// the index after sealing; FrozenEntries is its posting count. Zero
	// when the run never froze an index.
	FrozenBytes   int64
	FrozenEntries int64
	// Dynamic-tier counters (internal/dynamic). DeltaStrings counts
	// documents held in the mutable delta (live or tombstoned),
	// Tombstones the deletes pending compaction, Compactions the
	// completed base rebuilds, and WALBytes/WALRecords the current
	// write-ahead-log footprint. All zero for static runs.
	DeltaStrings  int64
	Tombstones    int64
	Compactions   int64
	CompactErrors int64
	WALBytes      int64
	WALRecords    int64
	// PeakLiveGroups is the largest number of simultaneously live length
	// groups (the paper bounds this by τ+1 for self joins and 2τ+1 for R≠S
	// joins under the sliding-window scan).
	PeakLiveGroups int64
}

// Add accumulates o into s. Either receiver or argument may be nil.
func (s *Stats) Add(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.Strings += o.Strings
	s.ShortStrings += o.ShortStrings
	s.SelectedSubstrings += o.SelectedSubstrings
	s.Lookups += o.Lookups
	s.LookupHits += o.LookupHits
	s.Candidates += o.Candidates
	s.UniqueCandidates += o.UniqueCandidates
	s.SigRejects += o.SigRejects
	s.Verifications += o.Verifications
	s.DPCells += o.DPCells
	s.EarlyTerms += o.EarlyTerms
	s.SharedRows += o.SharedRows
	s.Results += o.Results
	s.IndexBytes += o.IndexBytes
	s.IndexEntries += o.IndexEntries
	s.FrozenBytes += o.FrozenBytes
	s.FrozenEntries += o.FrozenEntries
	s.DeltaStrings += o.DeltaStrings
	s.Tombstones += o.Tombstones
	s.Compactions += o.Compactions
	s.CompactErrors += o.CompactErrors
	s.WALBytes += o.WALBytes
	s.WALRecords += o.WALRecords
	if o.PeakLiveGroups > s.PeakLiveGroups {
		s.PeakLiveGroups = o.PeakLiveGroups
	}
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	*s = Stats{}
}

// String renders the non-zero counters on one line, in a stable order.
func (s *Stats) String() string {
	if s == nil {
		return "<nil stats>"
	}
	var b strings.Builder
	w := func(name string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	w("strings", s.Strings)
	w("short", s.ShortStrings)
	w("selected", s.SelectedSubstrings)
	w("lookups", s.Lookups)
	w("hits", s.LookupHits)
	w("cands", s.Candidates)
	w("uniqCands", s.UniqueCandidates)
	w("sigRejects", s.SigRejects)
	w("verifs", s.Verifications)
	w("dpCells", s.DPCells)
	w("earlyTerms", s.EarlyTerms)
	w("sharedRows", s.SharedRows)
	w("results", s.Results)
	w("indexBytes", s.IndexBytes)
	w("indexEntries", s.IndexEntries)
	w("frozenBytes", s.FrozenBytes)
	w("frozenEntries", s.FrozenEntries)
	w("deltaStrings", s.DeltaStrings)
	w("tombstones", s.Tombstones)
	w("compactions", s.Compactions)
	w("compactErrors", s.CompactErrors)
	w("walBytes", s.WALBytes)
	w("walRecords", s.WALRecords)
	w("peakGroups", s.PeakLiveGroups)
	if b.Len() == 0 {
		return "<empty stats>"
	}
	return b.String()
}
