package core

import (
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
	"passjoin/internal/metrics"
)

// TestWorkCountersPinned is the first of ROADMAP's deterministic
// work-counter gates: the paper's own measures of algorithmic work
// (Figs. 12–14) are exact functions of corpus and threshold, so any drift
// is a real change to selection, the signature filter or the verifiers —
// never noise. One default-options self join per regime — long strings
// (titles, tau 8) and short ones (author names, tau 2) — serial and with two
// workers, which probe the same index under the same two counting rules
// (probeSelf) and so must report the same work. A change that means to move
// a counter updates its row here and says why.
func TestWorkCountersPinned(t *testing.T) {
	type counters struct {
		SelectedSubstrings, Lookups, LookupHits                                         int64
		Candidates, SigRejects, Verifications, DPCells, EarlyTerms, SharedRows, Results int64
	}
	cases := []struct {
		name   string
		corpus []string
		tau    int
		want   counters
	}{
		{"AuthorTitle(2000,1) tau=8", dataset.AuthorTitle(2000, 1), 8, counters{483443, 483443, 17216, 24554, 14716, 7398, 725856, 6594, 2852, 569}},
		{"Author(5000,1) tau=2", dataset.Author(5000, 1), 2, counters{59755, 59755, 7903, 13882, 12080, 1279, 20392, 490, 185, 785}},
	}
	for _, c := range cases {
		for _, parallel := range []int{0, 2} {
			var st metrics.Stats
			if _, err := SelfJoin(c.corpus, Options{Tau: c.tau, Stats: &st, Parallel: parallel}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got := counters{st.SelectedSubstrings, st.Lookups, st.LookupHits,
				st.Candidates, st.SigRejects, st.Verifications, st.DPCells, st.EarlyTerms, st.SharedRows, st.Results}
			if got != c.want {
				t.Errorf("%s Parallel=%d:\n got %+v\nwant %+v", c.name, parallel, got, c.want)
			}
		}
		// The one counter with a ground truth outside this package.
		if n := len(bruteforce.SelfJoin(c.corpus, c.tau)); int64(n) != c.want.Results {
			t.Errorf("%s: brute force finds %d pairs, the pinned Results is %d", c.name, n, c.want.Results)
		}
	}
}
