// Command bench is the one benchmark for the whole pass-join ladder: six
// workloads from the batch join up to the cluster coordinator, measured
// end to end with tracing off, and a traced pass that measures every layer
// from outside. README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	var compare bool
	fs.StringVar(&opts.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "seed of every generated input")
	fs.Float64Var(&opts.seconds, "seconds", 28, "timed budget per workload; rounds of fixed size are added until it is used")
	fs.IntVar(&opts.rounds, "rounds", 0, "run exactly this many timed rounds per workload instead of filling -seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	fs.BoolVar(&opts.quick, "quick", false, "tiny corpora and one round: checks that everything runs, measures nothing")
	fs.StringVar(&opts.jsonPath, "json", "", "write the result file here (default <out>/result[-trace].json)")
	fs.StringVar(&opts.outDir, "out", "out", "directory for result files, span files and temporary indexes")
	fs.BoolVar(&compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	opts.trace = trace == 1
	names := workloadNames()
	if opts.workload != "all" {
		if !slices.Contains(names, opts.workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", opts.workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{opts.workload}
	}
	if opts.quick {
		opts.rounds = 1
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	h := newHarness(opts, stdout)
	file := newResultFile(h)
	h.logf("bench: seed %d, C=%d clients, GOMAXPROCS %d of %d CPUs (%s), %s, commit %s",
		opts.seed, h.clients, file.Env.GOMAXPROCS, file.Env.NumCPU, file.Env.CPUModel, file.Env.GoVersion, file.Env.Commit)
	start := time.Now()
	var last *wlResult
	for _, name := range names {
		res, err := h.runWorkload(name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		file.Workloads = append(file.Workloads, res)
		h.printResult(res)
		last = res
	}
	file.TotalWallS = time.Since(start).Seconds()
	path := opts.jsonPath
	if path == "" {
		path = filepath.Join(opts.outDir, "result.json")
		if opts.trace {
			path = filepath.Join(opts.outDir, "result-trace.json")
		}
	}
	if err := file.write(path); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h.logf("bench: %d workloads in %.1f s, result file %s", len(names), file.TotalWallS, path)
	if len(names) == 1 {
		// The driver's contract: the last line is one JSON object.
		line, _ := json.Marshal(last.contractLine(opts.trace))
		fmt.Fprintln(stdout, string(line))
	}
	for _, res := range file.Workloads {
		if res.Failed > 0 {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		out[i] = w.Name
	}
	return out
}

// runWorkload runs the end-to-end pass of one workload, or its traced
// per-layer pass, and writes the span file of a traced pass.
func (h *harness) runWorkload(name string) (*wlResult, error) {
	start := time.Now()
	var rec *recorder
	if h.opts.trace {
		rec = newRecorder()
	}
	var res *wlResult
	var err error
	switch name {
	case wlJoinShort, wlJoinLong:
		if rec != nil {
			res, err = h.traceJoin(name, rec)
		} else {
			res, err = h.runJoin(name)
		}
	case wlSearchLib:
		if rec != nil {
			res, err = h.traceSearchLib(rec)
		} else {
			res, err = h.runSearchLib()
		}
	case wlChurnLib:
		if rec != nil {
			res, err = h.traceChurnLib(rec)
		} else {
			res, err = h.runChurnLib()
		}
	case wlServeRead:
		if rec != nil {
			res, err = h.traceServeRead(rec)
		} else {
			res, err = h.runServeRead()
		}
	case wlServeCluster:
		if rec != nil {
			res, err = h.traceServeCluster(rec)
		} else {
			res, err = h.runServeCluster()
		}
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		res.SpanFile = filepath.Join(h.opts.outDir, "trace-"+name+".jsonl")
		if err := rec.writeJSONL(res.SpanFile); err != nil {
			return nil, err
		}
		res.Info["spans"] = float64(len(rec.spans)) // not exact: a health probe may land in the traced round
	}
	if len(h.clockRef) > 0 {
		res.ClockRefMs, h.clockRef = h.clockRef, nil
	}
	res.finish(h.opts.trace, time.Since(start))
	return res, nil
}

// printResult prints one workload's metrics by name, with units.
func (h *harness) printResult(res *wlResult) {
	h.logf("\n== %s  (%d rounds, %.1f s wall, %.2f s generating inputs)", res.Name, res.Rounds, res.WallS, res.GenS)
	specs := endToEndSpecs
	if h.opts.trace {
		specs = perLayerSpecs
	}
	for _, s := range specs {
		m := res.Metrics[s.Name]
		if m == nil {
			continue
		}
		line := fmt.Sprintf("%-34s %16.4f %-9s", s.Name, m.Value, m.Unit)
		if len(m.Rounds) > 1 {
			line += fmt.Sprintf("  median %.4f  spread %.1f%%", m.Median, 100*m.Spread)
		}
		if m.Exact {
			line += "  exact"
		}
		h.logf("%s", line)
	}
	if ref := res.ClockRefMs; len(ref) > 0 {
		h.logf("%-34s %16.4f ms         fastest %.4f, slowest %.4f between rounds", "clock_ref_ms (median)", median(ref), slices.Min(ref), slices.Max(ref))
	}
	for _, k := range sortedKeys(res.Info) {
		h.logf("%-34s %16.4f  (info)", k, res.Info[k])
	}
	for _, k := range sortedKeys(res.Counters) {
		h.logf("%-34s %16d  (exact)", k, res.Counters[k])
	}
	h.logf("%-34s %16.6f  attempted %d, failed %d", "error_rate", res.ErrorRate, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		h.logf("  FAILED: %s", f)
	}
	if res.SpanFile != "" {
		h.logf("spans: %s", res.SpanFile)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

// contractResult is the driver's last-line object.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *wlResult) contractLine(traced bool) contractResult {
	specs := endToEndSpecs
	if traced {
		specs = driverPerLayer()
	}
	out := contractResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, s := range specs {
		if m := r.Metrics[s.Name]; m != nil {
			out.Metrics[s.Name] = contractMetric{m.Value, m.Unit}
		}
	}
	return out
}
