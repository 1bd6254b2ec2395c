package engine

import (
	"slices"
	"testing"

	"passjoin/internal/dataset"
	"passjoin/internal/metrics"
)

// The table holds the paper's algorithms once each, sorted by name.
func TestRegistryNames(t *testing.T) {
	var names []string
	for _, e := range All() {
		names = append(names, e.Name())
	}
	want := []string{"allpairs", "edjoin", "ngpp", "partenum", "passjoin", "qgram", "triejoin"}
	if !slices.Equal(names, want) {
		t.Fatalf("All() = %v, want %v", names, want)
	}
}

// Engines must accept a stats sink without disturbing their results.
func TestEnginesFillStats(t *testing.T) {
	strs := dataset.Author(100, 8)
	for _, e := range All() {
		var st metrics.Stats
		if _, err := e.SelfJoin(strs, 2, &st); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
}
