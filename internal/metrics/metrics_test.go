package metrics

import (
	"strings"
	"testing"
)

func TestAdd(t *testing.T) {
	a := &Stats{Strings: 1, Candidates: 2, Results: 3, IndexBytes: 10}
	b := &Stats{Strings: 10, Candidates: 20, Results: 30, DPCells: 7}
	a.Add(b)
	if a.Strings != 11 || a.Candidates != 22 || a.Results != 33 || a.DPCells != 7 || a.IndexBytes != 10 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestAddNilSafe(t *testing.T) {
	var nilStats *Stats
	nilStats.Add(&Stats{Strings: 1}) // must not panic
	s := &Stats{Strings: 1}
	s.Add(nil)
	if s.Strings != 1 {
		t.Error("Add(nil) mutated receiver")
	}
}

func TestReset(t *testing.T) {
	s := &Stats{Strings: 5, Results: 2}
	s.Reset()
	if s.Strings != 0 || s.Results != 0 {
		t.Errorf("Reset left %+v", s)
	}
	var nilStats *Stats
	nilStats.Reset() // must not panic
}

func TestAddAllFields(t *testing.T) {
	one := &Stats{
		Strings: 1, ShortStrings: 1, SelectedSubstrings: 1, Lookups: 1,
		LookupHits: 1, Candidates: 1, UniqueCandidates: 1, SigRejects: 1, Verifications: 1,
		DPCells: 1, EarlyTerms: 1, SharedRows: 1, Results: 1, IndexBytes: 1,
		IndexEntries: 1,
	}
	sum := &Stats{}
	sum.Add(one)
	sum.Add(one)
	if *sum != (Stats{
		Strings: 2, ShortStrings: 2, SelectedSubstrings: 2, Lookups: 2,
		LookupHits: 2, Candidates: 2, UniqueCandidates: 2, SigRejects: 2, Verifications: 2,
		DPCells: 2, EarlyTerms: 2, SharedRows: 2, Results: 2, IndexBytes: 2,
		IndexEntries: 2,
	}) {
		t.Errorf("Add missed a field: %+v", sum)
	}
}

func TestString(t *testing.T) {
	var nilStats *Stats
	if nilStats.String() != "<nil stats>" {
		t.Error("nil String")
	}
	if (&Stats{}).String() != "<empty stats>" {
		t.Error("empty String")
	}
	s := &Stats{Strings: 2, SigRejects: 4, Results: 1}
	out := s.String()
	if !strings.Contains(out, "strings=2") || !strings.Contains(out, "sigRejects=4") || !strings.Contains(out, "results=1") {
		t.Errorf("String() = %q", out)
	}
	if strings.Contains(out, "dpCells") {
		t.Errorf("zero counters should be omitted: %q", out)
	}
}
