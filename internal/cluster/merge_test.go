package cluster

import (
	"reflect"
	"sort"
	"testing"
)

func TestMergeHitsOrder(t *testing.T) {
	parts := [][]Hit{
		{{ID: 7, String: "g", Dist: 1}, {ID: 2, String: "b", Dist: 2}},
		{{ID: 5, String: "e", Dist: 0}, {ID: 1, String: "a", Dist: 1}},
		{{ID: 9, String: "i", Dist: 2}},
	}
	got := MergeHits(parts, 0)
	want := []Hit{
		{ID: 5, String: "e", Dist: 0},
		{ID: 1, String: "a", Dist: 1},
		{ID: 7, String: "g", Dist: 1},
		{ID: 2, String: "b", Dist: 2},
		{ID: 9, String: "i", Dist: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order wrong:\n got %v\nwant %v", got, want)
	}
}

// TestMergeHitsDedup pins the rebalance-overlap rule: a document id
// reported by two members counts once, keeping the smaller distance.
func TestMergeHitsDedup(t *testing.T) {
	parts := [][]Hit{
		{{ID: 4, String: "vldbx", Dist: 2}, {ID: 1, String: "a", Dist: 1}},
		{{ID: 4, String: "vldb", Dist: 1}}, // same doc id, better dist
	}
	got := MergeHits(parts, 0)
	want := []Hit{
		{ID: 1, String: "a", Dist: 1},
		{ID: 4, String: "vldb", Dist: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup wrong:\n got %v\nwant %v", got, want)
	}
	// Order of arrival must not matter.
	rev := MergeHits([][]Hit{parts[1], parts[0]}, 0)
	if !reflect.DeepEqual(rev, want) {
		t.Fatalf("dedup depends on part order:\n got %v\nwant %v", rev, want)
	}
	// Equal distances: one survivor, either copy (same id, same dist).
	eq := MergeHits([][]Hit{
		{{ID: 3, String: "x", Dist: 1}},
		{{ID: 3, String: "x", Dist: 1}},
	}, 0)
	if len(eq) != 1 || eq[0].ID != 3 {
		t.Fatalf("equal-dist duplicate not collapsed: %v", eq)
	}
}

// TestMergeHitsTopK checks the k-bounded selection matches a full sort
// plus truncation — the single-node QueryTopK contract.
func TestMergeHitsTopK(t *testing.T) {
	parts := [][]Hit{
		{{ID: 0, Dist: 3}, {ID: 3, Dist: 1}, {ID: 6, Dist: 0}},
		{{ID: 1, Dist: 1}, {ID: 4, Dist: 2}, {ID: 7, Dist: 1}},
		{{ID: 2, Dist: 0}, {ID: 5, Dist: 3}},
	}
	full := MergeHits(parts, 0)
	for k := 1; k <= len(full)+2; k++ {
		got := MergeHits(parts, k)
		want := append([]Hit(nil), full...)
		if len(want) > k {
			want = want[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d:\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestMergeHitsDedupBeforeTopK: the duplicate must be collapsed before
// the top-k cut, or a doubled doc could squeeze a real hit out of the
// top k.
func TestMergeHitsDedupBeforeTopK(t *testing.T) {
	parts := [][]Hit{
		{{ID: 1, Dist: 0}, {ID: 2, Dist: 1}},
		{{ID: 1, Dist: 0}, {ID: 3, Dist: 2}},
	}
	got := MergeHits(parts, 2)
	want := []Hit{{ID: 1, Dist: 0}, {ID: 2, Dist: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicate crowded out a real hit:\n got %v\nwant %v", got, want)
	}
}

func TestMergeHitsEmptyNonNil(t *testing.T) {
	if got := MergeHits(nil, 0); got == nil || len(got) != 0 {
		t.Fatalf("empty merge must be a non-nil empty slice, got %#v", got)
	}
	if got := MergeHits([][]Hit{{}, nil}, 5); got == nil || len(got) != 0 {
		t.Fatalf("empty parts must merge to a non-nil empty slice, got %#v", got)
	}
}

func TestMergeHitsManyRandomish(t *testing.T) {
	// Deterministic pseudo-random spread; compares the heap path against
	// sort+truncate at several k.
	var parts [][]Hit
	seed := uint64(42)
	next := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed >> 33 }
	for p := 0; p < 4; p++ {
		var part []Hit
		for i := 0; i < 200; i++ {
			part = append(part, Hit{ID: int(next() % 300), Dist: int(next() % 4)})
		}
		parts = append(parts, part)
	}
	full := MergeHits(parts, 0)
	if !sort.SliceIsSorted(full, func(i, j int) bool { return hitLess(full[i], full[j]) }) {
		t.Fatal("full merge not in (dist, id) order")
	}
	seen := map[int]bool{}
	for _, h := range full {
		if seen[h.ID] {
			t.Fatalf("id %d appears twice after dedup", h.ID)
		}
		seen[h.ID] = true
	}
	for _, k := range []int{1, 7, 50, 1000} {
		got := MergeHits(parts, k)
		want := append([]Hit(nil), full...)
		if len(want) > k {
			want = want[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d mismatch", k)
		}
	}
}
