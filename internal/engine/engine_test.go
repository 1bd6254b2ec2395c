package engine

import (
	"strings"
	"testing"

	"passjoin/internal/bruteforce"
	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/metrics"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"passjoin", "edjoin", "allpairs", "qgram", "triejoin", "ngpp", "partenum", Auto} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() missing %q: %v", want, names)
		}
	}
	for _, e := range All() {
		if e.Name() == Auto {
			t.Error("the auto pseudo-engine must not be registered")
		}
		got, err := Get(e.Name())
		if err != nil || got != e {
			t.Errorf("Get(%q) = %v, %v", e.Name(), got, err)
		}
	}
	if Valid("nope") || !Valid(Auto) || !Valid(Default) {
		t.Error("Valid misclassifies names")
	}
}

func TestGetUnknownListsValidNames(t *testing.T) {
	_, err := Get("nope")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// Resolving a name needs no corpus: the empty name and "auto" are the
// default, every registry name is itself, anything else is an error.
func TestResolve(t *testing.T) {
	for _, name := range []string{"", Auto, Default} {
		if e, err := Get(name); err != nil || e.Name() != Default {
			t.Errorf("Get(%q) = %v, %v, want %s", name, e, err, Default)
		}
	}
	if e, err := Get("triejoin"); err != nil || e.Name() != "triejoin" {
		t.Errorf("Get(triejoin) = %v, %v", e, err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown engine accepted")
	}
}

// RSJoin's disjoint-union reduction must agree with the brute-force R×S
// join for every engine.
func TestRSJoinMatchesBruteForce(t *testing.T) {
	rset := dataset.Author(60, 5)
	sset := dataset.Author(80, 6)
	want := map[core.Pair]bool{}
	for _, p := range bruteforce.Join(rset, sset, 2) {
		want[core.Pair{R: p.R, S: p.S}] = true
	}
	for _, e := range All() {
		got, err := RSJoin(e.SelfJoin, rset, sset, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d pairs, want %d", e.Name(), len(got), len(want))
			continue
		}
		for _, p := range got {
			if !want[p] {
				t.Errorf("%s: spurious pair %v", e.Name(), p)
				break
			}
		}
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
