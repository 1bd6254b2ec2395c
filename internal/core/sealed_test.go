package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
	"passjoin/internal/verify"
)

// sealedFrom returns the sealed matcher over the strings m holds, bulk-built
// on one worker from a copy of them: the sealed side of every test that takes
// one corpus down both probe paths. m, mutable, keeps probing the map index,
// which shares no code with the bulk build.
func sealedFrom(t testing.TB, m *Matcher, st *metrics.Stats) *Matcher {
	t.Helper()
	sealed, err := BuildSealedMatcher(m.tau, m.sel, m.vk, st, slices.Clone(m.Corpus()), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

func sealedTestCorpus(rng *rand.Rand, n int) []string {
	const alphabet = "abcde"
	out := make([]string, n)
	for i := range out {
		l := 1 + rng.Intn(20)
		b := make([]byte, l)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = string(b)
	}
	return out
}

// TestSealedQueryEquivalence: a sealed matcher answers every query as a
// mutable one over the same strings does — same ids, same distances, for
// every verification kind and a mix of corpus and off-corpus queries. Distances are independently checked
// against the full DP.
func TestSealedQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tau := range []int{0, 1, 2, 3} {
		for _, vk := range VerifyKinds {
			corpus := sealedTestCorpus(rng, 150)
			mut, err := NewMatcher(tau, selection.MultiMatch, vk, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range corpus {
				mut.InsertSilent(s)
			}
			sealed := sealedFrom(t, mut, nil)
			if sealed.FrozenIndex() == nil || mut.FrozenIndex() != nil {
				t.Fatal("the sealed matcher has no frozen index, or the mutable one has")
			}
			queries := append(append([]string(nil), corpus[:40]...), sealedTestCorpus(rng, 40)...)
			for _, q := range queries {
				got := sealed.Query(q)
				want := mut.Query(q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tau=%d vk=%v q=%q: sealed %v, mutable %v", tau, vk, q, got, want)
				}
				for _, h := range got {
					if d := verify.EditDistance(corpus[h.ID], q); d != int(h.Dist) {
						t.Fatalf("tau=%d vk=%v q=%q id=%d: reported dist %d, true %d", tau, vk, q, h.ID, h.Dist, d)
					}
				}
				if ids := sealed.QueryIDs(q); len(ids) != len(got) {
					t.Fatalf("tau=%d vk=%v q=%q: QueryIDs %v vs Query %v", tau, vk, q, ids, got)
				}
			}
		}
	}
}

// TestSealedSnapshotSharesFrozen: snapshots of a sealed matcher answer
// like the original (they share the frozen arena).
func TestSealedSnapshotSharesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	corpus := sealedTestCorpus(rng, 100)
	m, err := BuildSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.FrozenIndex() != m.FrozenIndex() {
		t.Fatal("snapshot does not share the frozen index")
	}
	for _, q := range corpus[:30] {
		if got, want := snap.Query(q), m.Query(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: snapshot %v, original %v", q, got, want)
		}
	}
}

// TestSealedInsertPanics: a sealed matcher is read-only.
func TestSealedInsertPanics(t *testing.T) {
	m, err := BuildSealedMatcher(1, selection.MultiMatch, VerifyExtensionShared, nil, []string{"hello"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"Insert":       func() { m.Insert("world") },
		"InsertSilent": func() { m.InsertSilent("world") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on sealed matcher did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestNewSealedMatcherValidation covers the argument checks of the
// constructor that is handed an index (the benchmark harness's).
func TestNewSealedMatcherValidation(t *testing.T) {
	corpus := []string{"abcdef", "abcdeg", "x"}
	m, err := NewMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		m.InsertSilent(s)
	}
	fz, err := index.BuildFrozen(corpus, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	re, err := NewSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, fz)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Query("abcdef"), m.Query("abcdef"); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt sealed matcher: %v, want %v", got, want)
	}
	if _, err := NewSealedMatcher(3, selection.MultiMatch, VerifyExtensionShared, nil, corpus, fz); err == nil {
		t.Error("tau mismatch accepted")
	}
	if _, err := NewSealedMatcher(2, selection.MultiMatch, VerifyExtensionShared, nil, corpus, nil); err == nil {
		t.Error("nil frozen index accepted")
	}
	if _, err := NewSealedMatcher(-1, selection.MultiMatch, VerifyExtensionShared, nil, corpus, fz); err == nil {
		t.Error("negative tau accepted")
	}
}
