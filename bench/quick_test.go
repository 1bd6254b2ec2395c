package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickRun runs `bench -quick` in-process and returns its result file.
func quickRun(t *testing.T, dir string, extra ...string) (*resultFile, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := append([]string{"-quick", "-out", dir}, extra...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s\n%s", args, code, out.String(), errOut.String())
	}
	name := "result.json"
	if strings.Contains(strings.Join(extra, " "), "-trace 1") {
		name = "result-trace.json"
	}
	f, err := readResultFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return f, out.String()
}

// TestQuickEndToEnd keeps every workload, its oracles and the result
// schema running under `go test`: the numbers mean nothing at these sizes,
// but each workload must report every end-to-end metric, non-zero, with no
// failed operation.
func TestQuickEndToEnd(t *testing.T) {
	dir := t.TempDir()
	f, out := quickRun(t, dir)
	if !f.Quick || f.Traced || f.Seed != defaultSeed || f.Env.GOMAXPROCS == 0 || f.Env.GoVersion == "" || f.Env.CPUModel == "" || f.Env.Commit == "" {
		t.Errorf("stamp: %+v quick=%v traced=%v seed=%d", f.Env, f.Quick, f.Traced, f.Seed)
	}
	if len(f.Workloads) != len(workloadSpecs) || f.TotalWallS <= 0 {
		t.Fatalf("%d workloads in the result file, wall %v", len(f.Workloads), f.TotalWallS)
	}
	for i, w := range f.Workloads {
		if w.Name != workloadSpecs[i].Name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloadSpecs[i].Name)
		}
		if w.Failed != 0 || w.Attempted < 1 || w.ErrorRate != 0 || w.Rounds != 1 || w.WallS <= 0 {
			t.Errorf("%s: attempted %d, failed %d (%v), rounds %d", w.Name, w.Attempted, w.Failed, w.Failures, w.Rounds)
		}
		for _, s := range endToEndSpecs {
			m := w.Metrics[s.Name]
			if m == nil || m.Value <= 0 || m.Unit != s.Unit {
				t.Errorf("%s: %s = %+v", w.Name, s.Name, m)
			}
			if !strings.Contains(out, s.Name) || !strings.Contains(out, s.Unit) {
				t.Errorf("output does not print %s with its unit", s.Name)
			}
		}
		if len(w.Metrics) != len(endToEndSpecs) {
			t.Errorf("%s: an untraced pass reports %d metrics, want the %d end-to-end ones", w.Name, len(w.Metrics), len(endToEndSpecs))
		}
		if w.Counters["corpus_hash48"] == 0 {
			t.Errorf("%s: no input fingerprint", w.Name)
		}
	}
	if !strings.Contains(out, "error_rate") || !strings.Contains(out, "attempted") {
		t.Error("output does not print error_rate with the attempted/failed counts")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(left) != 0 {
		t.Errorf("temporary index directories left behind: %v", left)
	}

	// Two quick runs at one seed agree on every exact counter, but
	// -compare refuses them: quick numbers are not measurements.
	dir2 := t.TempDir()
	f2, _ := quickRun(t, dir2)
	for i, w := range f.Workloads {
		for k, v := range w.Counters {
			if f2.Workloads[i].Counters[k] != v {
				t.Errorf("%s: counter %s is %d then %d at the same seed", w.Name, k, v, f2.Workloads[i].Counters[k])
			}
		}
	}
	var cmp, cmpErr bytes.Buffer
	if code := run([]string{"-compare", filepath.Join(dir, "result.json"), filepath.Join(dir2, "result.json")}, &cmp, &cmpErr); code != 2 {
		t.Errorf("-compare of quick results: exit %d, want 2 (%s)", code, cmpErr.String())
	}
}

// TestQuickTraced runs the per-layer pass of every workload: every
// per-layer metric is reported by every workload, the layers on a
// workload's path are non-zero, exact counters repeat, and the span files
// are written.
func TestQuickTraced(t *testing.T) {
	dir := t.TempDir()
	f, _ := quickRun(t, dir, "-trace", "1")
	f2, _ := quickRun(t, t.TempDir(), "-trace", "1")
	onPath := map[string][]string{
		wlJoinShort:    {"selection.substrings", "index.entries", "verify.banded_pair_ns", "core.candidates", "core.join_self_s"},
		wlJoinLong:     {"selection.scan_ns_per_string", "verify.myers_pair_ns", "core.dp_cells_per_verification"},
		wlSearchLib:    {"index.probe_ns", "core.query_ns", "searcher.search_ns", "sharded.qps.s2", "persist.read_s"},
		wlChurnLib:     {"dynamic.search_dirty_ns", "dynamic.insert_wal_ns", "dynamic.wal_bytes_per_insert", "dynamic.compact_s", "churn.insert_p99_us", mTailP99Us},
		wlServeRead:    {mTailP99Us, "server.handler_ns", "server.resp_bytes_per_req", "server.trace_overhead_ratio", "net.loopback_self_us"},
		wlServeCluster: {"cluster.coord_span_us_p50", "cluster.slowest_member_us_p50", "cluster.coord_self_us_p50", "cluster.merge_ns"},
	}
	for i, w := range f.Workloads {
		if w.Failed != 0 {
			t.Errorf("%s: %d failed operations: %v", w.Name, w.Failed, w.Failures)
		}
		if len(w.Metrics) != len(perLayerSpecs) {
			t.Errorf("%s: %d metrics, want all %d per-layer ones", w.Name, len(w.Metrics), len(perLayerSpecs))
		}
		for _, name := range append(onPath[w.Name], "trace.overhead_ratio") {
			if m := w.Metrics[name]; m == nil || m.Value <= 0 {
				t.Errorf("%s: %s = %+v, want a positive value", w.Name, name, m)
			}
		}
		for _, s := range perLayerSpecs {
			a, b := w.Metrics[s.Name], f2.Workloads[i].Metrics[s.Name]
			if s.Exact && (a == nil || b == nil || !a.Exact || a.Value != b.Value) {
				t.Errorf("%s: exact metric %s is %+v then %+v", w.Name, s.Name, a, b)
			}
		}
		if w.Name == wlServeCluster {
			if got := w.Metrics["cluster.member_calls_per_query"].Value; got != clusterMembers {
				t.Errorf("member_calls_per_query = %v, want %d", got, clusterMembers)
			}
			if got := w.Metrics["cluster.member_errors"].Value; got != 0 {
				t.Errorf("member_errors = %v", got)
			}
		}
		st, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl"))
		if err != nil || st.Size() == 0 {
			t.Errorf("%s: span file: %v", w.Name, err)
		}
	}
}

// TestContractLine checks the driver's protocol for a single workload:
// double-dash flags, and a last line that is one JSON object with exactly
// the keys correct, attempted, failed and metrics.
func TestContractLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEndSpecs}, {"1", driverPerLayer()}} {
		var out, errOut bytes.Buffer
		args := []string{"-quick", "-out", t.TempDir(), "--workload", wlServeRead, "--seed", "42", "--seconds", "1", "--trace", c.trace}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if got := strings.Join(sortedKeys(obj), ","); got != "attempted,correct,failed,metrics" {
			t.Errorf("keys %s", got)
		}
		var line contractResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(c.specs) {
			t.Errorf("trace %s: %+v", c.trace, line)
		}
		for _, s := range c.specs {
			if m, ok := line.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("trace %s: metric %s = %+v", c.trace, s.Name, m)
			}
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
