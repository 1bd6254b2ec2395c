package passjoin

import (
	"passjoin/internal/core"
)

// Matcher is the online variant of the similarity join: strings are
// inserted one at a time, in any order, and each insertion reports all
// previously inserted strings within the threshold. Internally it is the
// Pass-Join framework with every length group kept live and probes on both
// sides of the current string's length.
//
// A Matcher is not safe for concurrent use.
type Matcher struct {
	m *core.Matcher
}

// NewMatcher creates an online matcher for the given threshold.
func NewMatcher(tau int, opts ...Option) (*Matcher, error) {
	cfg, err := buildConfig(tau, opts)
	if err != nil {
		return nil, err
	}
	inner := cfg.coreOptions(tau)
	m, err := core.NewMatcher(tau, inner.Selection, inner.Verification, inner.Stats)
	if err != nil {
		return nil, err
	}
	return &Matcher{m: m}, nil
}

// Insert adds s and returns the ids (insertion order, 0-based) of all
// previously inserted strings within the threshold, sorted ascending.
func (m *Matcher) Insert(s string) []int {
	return toInts(m.m.Insert(s))
}

// Query reports the ids of inserted strings within the threshold of s
// without inserting s.
func (m *Matcher) Query(s string) []int {
	return toInts(m.m.QueryIDs(s))
}

// Len returns the number of inserted strings.
func (m *Matcher) Len() int { return m.m.Len() }

// At returns the id-th inserted string.
func (m *Matcher) At(id int) string { return m.m.String(id) }

func toInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
