package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// fakeFile is a result file with one workload whose end-to-end metrics are
// all 100, except as overridden.
func fakeFile(t *testing.T, name string, edit func(*resultFile)) string {
	t.Helper()
	res := newResult(wlSearchLib)
	for _, s := range endToEndSpecs {
		res.Metrics[s.Name] = &metricResult{Value: 100, Unit: s.Unit}
	}
	res.Metrics["index.entries"] = &metricResult{Value: 300000, Unit: unitCount, Exact: true}
	res.Counters["query_set_matches"] = 4242
	res.Attempted = 1000
	f := &resultFile{Seed: 1, Clients: 2, Sizes: fullSizes, Workloads: []*wlResult{res}}
	f.Env.GOMAXPROCS = 2
	if edit != nil {
		edit(f)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := f.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := fakeFile(t, "a.json", nil)
	metric := func(name string, v float64) func(*resultFile) {
		return func(f *resultFile) { f.Workloads[0].Metrics[name].Value = v }
	}
	for _, c := range []struct {
		name string
		edit func(*resultFile)
		want int
		say  string
	}{
		{"identical", nil, 0, "within every bound"},
		{"latency worse inside the bound", metric(mOpP50Us, 124), 0, "+24.0%"},
		{"latency worse beyond the bound", metric(mOpP50Us, 126), 1, "REGRESSION"},
		{"latency better", metric(mOpP50Us, 50), 0, "-50.0%"},
		{"throughput lower inside the bound", metric(mOpsPerS, 76), 0, "+24.0%"},
		{"throughput lower beyond the bound", metric(mOpsPerS, 74), 1, "REGRESSION"},
		{"throughput higher", metric(mOpsPerS, 150), 0, "-50.0%"},
		{"set-up beyond its bound", metric(mSetupS, 126), 1, "REGRESSION"},
		{"memory has the tightest bound", metric(mMemMB, 104), 1, "REGRESSION"},
		{"exact metric differs", metric("index.entries", 300001), 1, "exact metric index.entries differs"},
		{"exact counter differs", func(f *resultFile) { f.Workloads[0].Counters["query_set_matches"] = 4243 }, 1, "exact counter query_set_matches differs"},
		{"more failures", func(f *resultFile) { f.Workloads[0].Failed = 1 }, 1, "failed operations rose"},
		{"another seed", func(f *resultFile) { f.Seed = 2 }, 2, "seeds differ"},
		{"another core count", func(f *resultFile) { f.Env.GOMAXPROCS = 8 }, 2, "GOMAXPROCS"},
		{"other op counts", func(f *resultFile) { f.Sizes.SearchOps = 5 }, 2, "op counts differ"},
		{"quick run", func(f *resultFile) { f.Quick = true }, 2, "-quick"},
		{"traced against untraced", func(f *resultFile) { f.Traced = true }, 2, "traced"},
	} {
		var out, errOut bytes.Buffer
		got := compareFiles(base, fakeFile(t, "b.json", c.edit), &out, &errOut)
		if got != c.want || !strings.Contains(out.String()+errOut.String(), c.say) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", c.name, got, c.want, c.say, out.String(), errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if got := run([]string{"-compare", base}, &out, &errOut); got != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", got)
	}
	if got := run([]string{"-compare", base, filepath.Join(t.TempDir(), "missing.json")}, &out, &errOut); got != 2 {
		t.Errorf("-compare with a missing file: exit %d, want 2", got)
	}
}
