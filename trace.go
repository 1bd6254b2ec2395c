package passjoin

import "passjoin/internal/obs"

// Trace collects a per-phase timing breakdown of one Search call — the
// flight-recorder view of a query: how much wall time went to substring
// selection, index probing, candidate deduplication, and verification,
// and how many operations each phase performed. Attach one with the
// QueryTrace option:
//
//	var tr passjoin.Trace
//	idx.Search(q, passjoin.QueryTrace(&tr))
//	for _, p := range tr.Phases() { ... }
//
// A Trace must not be shared by concurrent Search calls. A query runs on
// its caller's goroutine, so phase times are wall time of that call; a
// DynamicSearcher adds up its tiers. Tracing adds clock reads around each
// phase transition (eight per batch of 32 index lookups on a static
// index), so it is a per-query debugging tool, not an always-on default;
// untraced queries pay nothing.
//
// The zero value is ready to use. Phase times are exclusive — nested
// phases pause their parent — so they sum to the traced probe time.
type Trace struct {
	inner obs.QueryTrace
}

// PhaseTiming is one phase's share of a traced query; ?debug=timings
// encodes it under the JSON keys below.
type PhaseTiming struct {
	// Phase names the stage: "selection", "probe", "dedup" or "verify".
	Phase string `json:"phase"`
	// Nanos is the exclusive wall time spent in the phase.
	Nanos int64 `json:"nanos"`
	// Count is the phase's operation count: substrings selected, lists
	// looked up, candidate occurrences scanned, verifier invocations.
	Count int64 `json:"count"`
}

// Phases returns the breakdown in fixed phase order (selection, probe,
// dedup, verify), including phases with zero time.
func (t *Trace) Phases() []PhaseTiming {
	out := make([]PhaseTiming, obs.NumPhases)
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		ps := t.inner.Phase(p)
		out[p] = PhaseTiming{Phase: p.String(), Nanos: ps.Nanos, Count: ps.Count}
	}
	return out
}

// TotalNanos returns the summed wall time across phases.
func (t *Trace) TotalNanos() int64 { return t.inner.TotalNanos() }

// Reset zeroes the trace for reuse by a later query.
func (t *Trace) Reset() { t.inner.Reset() }
