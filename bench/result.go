package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envStamp records where and on what a result file was measured, so a run
// on another core count or commit is recognisable after the fact.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func stampEnv() envStamp {
	return envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from: the build's VCS stamp
// when there is one, else what git says about the working directory, else
// "unknown" (a checkout that is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// resultFile is what -json writes: the stamp, the settings that must match
// for two files to be comparable, and every workload's result with its
// per-round raw values.
type resultFile struct {
	Env        envStamp    `json:"env"`
	Seed       int64       `json:"seed"`
	Clients    int         `json:"clients"`
	Quick      bool        `json:"quick"`
	Traced     bool        `json:"traced"`
	Seconds    float64     `json:"seconds"`
	Sizes      sizes       `json:"sizes"`
	Workloads  []*wlResult `json:"workloads"`
	TotalWallS float64     `json:"total_wall_s"`
}

func newResultFile(h *harness) *resultFile {
	return &resultFile{
		Env: stampEnv(), Seed: h.opts.seed, Clients: h.clients,
		Quick: h.opts.quick, Traced: h.opts.trace, Seconds: h.opts.seconds, Sizes: h.sz,
	}
}

func (f *resultFile) write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) workload(name string) *wlResult {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// compareFiles prints, for every (workload, end-to-end metric) in both
// files, A's value, B's value, how much worse B is and the bound; then
// every exact counter that differs. It returns 1 when B is worse than A by
// more than a bound, an exact counter differs, or B has more failures, and
// 2 when the files cannot be compared at all.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			if err = comparable(a, b); err == nil {
				return compareResults(a, b, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, "bench -compare:", err)
	return 2
}

// comparable refuses pairs of files that did not measure the same thing.
func comparable(a, b *resultFile) error {
	switch {
	case a.Quick || b.Quick:
		return fmt.Errorf("-quick results measure nothing and cannot be compared")
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Clients != b.Clients:
		return fmt.Errorf("GOMAXPROCS/clients differ: %d/%d vs %d/%d", a.Env.GOMAXPROCS, a.Clients, b.Env.GOMAXPROCS, b.Clients)
	case a.Sizes != b.Sizes:
		return fmt.Errorf("corpus sizes or per-round op counts differ: %+v vs %+v", a.Sizes, b.Sizes)
	case a.Traced != b.Traced:
		return fmt.Errorf("one file is a traced pass and the other is not")
	}
	return nil
}

func compareResults(a, b *resultFile, out io.Writer) int {
	bad := 0
	fmt.Fprintf(out, "%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, s := range endToEndSpecs {
			ma, mb := wa.Metrics[s.Name], wb.Metrics[s.Name]
			if ma == nil || mb == nil || ma.Value == 0 {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if s.Better == higherIs {
				worse = -worse
			}
			verdict := ""
			if worse > s.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Fprintf(out, "%-14s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				wa.Name, s.Name, ma.Value, mb.Value, 100*worse, 100*s.Bound, verdict)
		}
		for _, k := range sortedKeys(wa.Metrics) {
			ma, mb := wa.Metrics[k], wb.Metrics[k]
			if ma.Exact && mb != nil && ma.Value != mb.Value {
				fmt.Fprintf(out, "%-14s exact metric %s differs: %v vs %v\n", wa.Name, k, ma.Value, mb.Value)
				bad++
			}
		}
		for _, k := range sortedKeys(wa.Counters) {
			if vb, ok := wb.Counters[k]; ok && vb != wa.Counters[k] {
				fmt.Fprintf(out, "%-14s exact counter %s differs: %d vs %d\n", wa.Name, k, wa.Counters[k], vb)
				bad++
			}
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(out, "%-14s failed operations rose: %d of %d vs %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d differences beyond the bounds\n", bad)
		return 1
	}
	fmt.Fprintln(out, "B is within every bound of A and every exact counter agrees")
	return 0
}
