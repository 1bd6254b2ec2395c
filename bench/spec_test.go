package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the driver's schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// BENCHMARK.json is written by hand; this holds it to the tables the
// harness reports from and to the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(keys); !slices.Equal(got, want) {
		t.Errorf("top-level keys %v, want exactly %v", got, want)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", b.RunSeconds)
	}
	// The driver makes 4 + 22 runs per workload and gives them 3420 s in
	// all; a run spends about 6 s outside its timed rounds (README.md,
	// "What the driver runs").
	if runs := 4 + 22*len(b.Workloads); runs*(b.RunSeconds+6) > 3420 {
		t.Errorf("%d runs of %d+6 s do not fit the driver's 3420 s", runs, b.RunSeconds)
	}
	if !slices.Equal(b.Workloads, driverWorkloads()) {
		t.Errorf("workloads differ from spec.go:\n%+v\n%+v", b.Workloads, driverWorkloads())
	}
	strip := func(specs []metricSpec) []metricSpec {
		out := slices.Clone(specs)
		for i := range out {
			out[i].Exact = false
		}
		return out
	}
	if !slices.Equal(b.EndToEnd, strip(endToEndSpecs)) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", b.EndToEnd, endToEndSpecs)
	}
	if !slices.Equal(b.PerLayer, strip(driverPerLayer())) {
		t.Errorf("per_layer differs from spec.go")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(driverWorkloads()); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range endToEndSpecs {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == mSetupS && m.Unit == "s" && m.Better == lowerIs)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range slices.Concat(endToEndSpecs, perLayerSpecs) {
		if !unitRE.MatchString(m.Unit) || (m.Better != lowerIs && m.Better != higherIs) {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayerSpecs {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}
