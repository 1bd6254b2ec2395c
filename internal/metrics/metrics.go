// Package metrics provides the work counters of the Pass-Join engine, the
// baselines and the experiment harness; passjoin.Stats is defined over its
// Stats, whose field docs are the public ones. Counters are plain int64
// fields; callers that do not need instrumentation pass a nil *Stats.
package metrics

import (
	"fmt"
	"strings"
)

// Stats accumulates per-run instrumentation: totals over one join, one
// index build or one Matcher's lifetime. A nil *Stats is valid everywhere
// and records nothing.
type Stats struct {
	// Strings is the number of input strings scanned (on a dynamic index,
	// the live documents).
	Strings int64
	// ShortStrings counts strings of length <= tau, which bypass the
	// segment index (they cannot be split into tau+1 non-empty segments).
	ShortStrings int64
	// SelectedSubstrings counts substrings enumerated by the selection
	// method, |W(s,l)| summed over every probed (s, l): Figure 12's metric.
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
	// Verifications, DPCells, EarlyTerms and SharedRows count only the
	// survivors.
	SigRejects int64
	// Verifications counts verifier invocations (a pair verified through the
	// extension method counts once per attempted alignment).
	Verifications int64
	// DPCells counts dynamic-programming matrix cells computed across all
	// verifications (Figure 14's metric).
	DPCells int64
	// EarlyTerms counts verifications stopped by the expected-edit-distance
	// rule (Lemma 4).
	EarlyTerms int64 `json:"EarlyTerminations"`
	// SharedRows counts DP rows reused via common-prefix sharing (§5.3).
	SharedRows int64
	// Results is the number of similar pairs found.
	Results int64
	// IndexBytes approximates the peak retained size of the segment index
	// (Table 3's metric); IndexEntries is its posting count. For the
	// sliding-window join they are the window at its largest over the
	// slides made, and so is PeakLiveGroups; for one its emit stopped
	// early, over the slides up to that of the chunk that held its last
	// pair, whatever its helper had built ahead.
	IndexBytes   int64
	IndexEntries int64
	// FrozenBytes is the exact retained size of the frozen (CSR) index a
	// Searcher or a DynamicSearcher's base serves from; FrozenEntries is its
	// posting count. Zero for runs that never seal (joins, Matcher).
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
	// PeakLiveGroups is the largest number of simultaneously live length
	// groups, reported by the sequential sliding-window join alone (the
	// paper bounds it by τ+1 for self joins and 2τ+1 for R≠S joins).
	PeakLiveGroups int64 `json:",omitempty"`
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
	s.DeltaDocs += o.DeltaDocs
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
	w("deltaStrings", s.DeltaDocs)
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
