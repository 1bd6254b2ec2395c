package metrics

import (
	"reflect"
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

// fields returns every counter of st by name, failing t on a field that
// is not an int64 (which the reflection checks below would not cover).
func fields(t *testing.T, st *Stats) map[string]reflect.Value {
	t.Helper()
	v := reflect.ValueOf(st).Elem()
	out := make(map[string]reflect.Value, v.NumField())
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s, not int64", f.Name, f.Type)
		}
		out[f.Name] = v.Field(i)
	}
	return out
}

// TestAddAllFields: Add sums every counter, so a parallel join's per-worker
// counts all reach the caller, except PeakLiveGroups, which takes the max.
func TestAddAllFields(t *testing.T) {
	var one, sum Stats
	for _, f := range fields(t, &one) {
		f.SetInt(1)
	}
	sum.Add(&one)
	sum.Add(&one)
	for name, f := range fields(t, &sum) {
		want := int64(2)
		if name == "PeakLiveGroups" {
			want = 1
		}
		if f.Int() != want {
			t.Errorf("after two Adds of all-ones, %s = %d, want %d", name, f.Int(), want)
		}
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
	// Every counter, set alone to a value no other counter holds, shows.
	for name := range fields(t, &Stats{}) {
		var st Stats
		fields(t, &st)[name].SetInt(987654321)
		if out := st.String(); !strings.Contains(out, "=987654321") {
			t.Errorf("String() with only %s set = %q", name, out)
		}
	}
}
