package engine

import (
	"bytes"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
)

// FuzzEngineEquivalence is the differential fuzzer behind the
// conformance suite: an arbitrary corpus (newline-split fuzz input, so
// the fuzzer can mutate string contents, lengths and counts freely) and
// threshold must produce the identical pair set from every registered
// engine as the O(n²) brute-force reference. Run by the CI fuzz-smoke step
// alongside FuzzQueryTau and FuzzWALReplay.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte("abc\nabd\nxyz\nab"), uint8(1))
	f.Add([]byte("dup\ndup\ndup\ndop\ndu\n"), uint8(2))
	f.Add([]byte("aaaaaaaabbbb\naaaaaaaacbbb\nbaaaaaaabbbb"), uint8(3))
	f.Add([]byte("\x00\x01\x02\n\x00\x01\x03\n\xff\xfe"), uint8(1))
	f.Add([]byte(""), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, rawTau uint8) {
		if len(data) > 1<<10 {
			return // keep brute force affordable
		}
		tau := 1 + int(rawTau%4)
		var strs []string
		for _, line := range bytes.Split(data, []byte("\n")) {
			strs = append(strs, string(line))
		}
		if len(strs) > 48 {
			strs = strs[:48]
		}
		want := map[core.Pair]bool{}
		for _, p := range bruteforce.SelfJoin(strs, tau) {
			want[core.Pair{R: p.R, S: p.S}] = true
		}
		check := func(name string, got []core.Pair) {
			if len(got) != len(want) {
				t.Fatalf("%s/tau=%d: %d pairs, want %d (corpus %q)", name, tau, len(got), len(want), strs)
			}
			for _, p := range got {
				if !want[p] {
					t.Fatalf("%s/tau=%d: spurious pair %v (corpus %q)", name, tau, p, strs)
				}
			}
		}
		for _, e := range All() {
			got, err := e.SelfJoin(strs, tau, nil)
			if err != nil {
				t.Fatalf("%s/tau=%d: %v (corpus %q)", e.Name(), tau, err, strs)
			}
			check(e.Name(), got)
		}
	})
}
