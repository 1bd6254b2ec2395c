package obs

import "time"

// Phase identifies one stage of a query's journey through the prober —
// the phase split the paper's §6 evaluation is built around (substring
// selection vs index probing vs verification), plus the dedup stage the
// implementation adds between probe and verify.
type Phase uint8

const (
	// PhaseSelect is substring selection: computing the multi-match-aware
	// windows for each (length, segment) slot. Count = substrings selected.
	PhaseSelect Phase = iota
	// PhaseProbe is the inverted-index probe: hashing selected substrings
	// and walking the segment tables. Count = list lookups.
	PhaseProbe
	// PhaseDedup is candidate deduplication: stamping candidate ids and
	// collecting the verification batch. Count = candidate occurrences
	// scanned.
	PhaseDedup
	// PhaseVerify is verification: the batch flush, the extension method's
	// in-place checks, and the short-string direct checks. Count =
	// verifier invocations.
	PhaseVerify
	// NumPhases bounds the phase enum; not a phase itself.
	NumPhases
)

var phaseNames = [NumPhases]string{"selection", "probe", "dedup", "verify"}

// String returns the phase's stable wire name (used as the phase label in
// /metrics and the keys of the ?debug=timings breakdown).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseStat is the accumulated wall time and operation count of one phase.
type PhaseStat struct {
	Nanos int64
	Count int64
}

// QueryTrace records per-phase wall time and counters for one query. It
// is single-goroutine state and additive (a dynamic index passes the same
// trace to each tier in turn); a nil *QueryTrace is valid everywhere and
// records nothing, so the untraced hot path pays only nil checks — no
// clock reads, no allocations. All storage is inline fixed-size arrays:
// tracing itself never allocates either.
//
// Begin/End nest: beginning a child phase pauses the enclosing one, so
// phase times are exclusive and sum to the traced span's wall time (plus
// clock-read overhead).
type QueryTrace struct {
	phases [NumPhases]PhaseStat
	stack  [4]span
	depth  int
}

type span struct {
	phase Phase
	start time.Time
}

// Begin starts (or resumes nesting into) phase p.
func (t *QueryTrace) Begin(p Phase) {
	if t == nil {
		return
	}
	now := time.Now()
	if t.depth > 0 && t.depth <= len(t.stack) {
		par := &t.stack[t.depth-1]
		t.phases[par.phase].Nanos += now.Sub(par.start).Nanoseconds()
	}
	if t.depth < len(t.stack) {
		t.stack[t.depth] = span{phase: p, start: now}
	}
	t.depth++
}

// End closes the innermost Begin (p is documentation; spans close in
// LIFO order) and resumes the enclosing phase's clock.
func (t *QueryTrace) End(p Phase) {
	if t == nil {
		return
	}
	now := time.Now()
	if t.depth > 0 && t.depth <= len(t.stack) {
		sp := &t.stack[t.depth-1]
		t.phases[sp.phase].Nanos += now.Sub(sp.start).Nanoseconds()
	}
	if t.depth > 0 {
		t.depth--
	}
	if t.depth > 0 && t.depth <= len(t.stack) {
		t.stack[t.depth-1].start = now
	}
}

// AddCount adds n to phase p's operation counter.
func (t *QueryTrace) AddCount(p Phase, n int64) {
	if t == nil {
		return
	}
	t.phases[p].Count += n
}

// Phase returns the accumulated stat for p (zero value on a nil trace).
func (t *QueryTrace) Phase(p Phase) PhaseStat {
	if t == nil {
		return PhaseStat{}
	}
	return t.phases[p]
}

// TotalNanos returns the summed wall time across phases.
func (t *QueryTrace) TotalNanos() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, ps := range t.phases {
		n += ps.Nanos
	}
	return n
}

// Reset zeroes the trace for reuse.
func (t *QueryTrace) Reset() {
	if t == nil {
		return
	}
	*t = QueryTrace{}
}
