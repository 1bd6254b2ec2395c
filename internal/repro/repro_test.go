// Package repro reproduces the evaluation of the Pass-Join paper (§6:
// Table 2, Figures 11–16, Table 3, and four ablations beyond it) on the
// synthetic corpora, at one scale and one seed. It holds tests only:
//
//	go test ./internal/repro -run TestExperiments -update
//
// rewrites docs/EXPERIMENTS.md from a full run. Without -update the test
// recomputes every column in the paper's units (selected substrings,
// candidates, signature rejects, verifications, DP cells, results, index
// bytes), which are deterministic, and fails on any difference from the
// committed file; the millisecond columns are one machine's and are not
// compared. Figure 15's full sweep takes about a minute, nearly all of it
// Trie-Join, so a plain run computes that figure at each corpus's smallest
// τ only.
//
// Each table and figure has one function, which TestExperiments and
// BenchmarkFigures both call; the paper's shapes those functions pin
// (orderings, bounds, growth) fail the test wherever they are called from.
package repro

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"passjoin/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite docs/EXPERIMENTS.md from a full run")

// docPath is the committed report, relative to this package.
const docPath = "../../docs/EXPERIMENTS.md"

// seed is the corpus generator seed every figure uses.
const seed = 1

// spec is one evaluation corpus at scale small, with the thresholds of the
// x-axes of Figures 12–15.
type spec struct {
	name    string
	n       int
	taus    []int
	histBin int // Figure 11's bin width
	edq     int // ED-Join's gram length for this regime
}

var specs = []spec{
	{name: "author", n: 5000, taus: []int{1, 2, 3, 4}, histBin: 2, edq: 2},
	{name: "querylog", n: 2000, taus: []int{4, 5, 6, 7, 8}, histBin: 10, edq: 3},
	{name: "authortitle", n: 1200, taus: []int{5, 6, 7, 8, 9, 10}, histBin: 20, edq: 4},
}

var corpora = map[string][]string{}

// corpus generates (once) the spec's corpus.
func corpus(tb testing.TB, sp spec) []string {
	if strs, ok := corpora[sp.name]; ok {
		return strs
	}
	strs, err := dataset.ByName(sp.name, sp.n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	corpora[sp.name] = strs
	return strs
}

// keep is a cell that a check run does not compute: it takes the committed
// file's value. Timings are kept, and so are Figure 15's skipped rows.
const keep = "\x00"

// run is one regeneration. full is set under -update: it times every
// cell and runs Figure 15's whole sweep. procs is the GOMAXPROCS the test
// started with; every figure but Ablation C runs at one.
type run struct {
	tb    testing.TB
	full  bool
	procs int
}

// ms renders a duration in milliseconds, or keep in a check run.
func (r *run) ms(d time.Duration) string {
	if !r.full {
		return keep
	}
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// timeIt measures f's wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// figure is one section of the report: a title, a note and its tables.
type figure struct {
	title, note string
	tables      []*table
}

// table is one markdown table; name heads it when a figure has several.
type table struct {
	name   string
	header []string
	rows   [][]string
}

func newTable(name string, header ...string) *table {
	return &table{name: name, header: header}
}

// add appends a row, each cell printed with %v.
func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// experiments is every table and figure, in the paper's order.
var experiments = []struct {
	name string
	run  func(*run) figure
}{
	{"table2", table2}, {"fig11", fig11}, {"fig12", fig12}, {"fig13", fig13},
	{"fig14", fig14}, {"fig15", fig15}, {"fig16", fig16}, {"table3", table3},
	{"ablationA", ablationA}, {"ablationB", ablationB}, {"ablationC", ablationC},
	{"ablationD", ablationD},
}

// TestExperiments regenerates the report under -update and otherwise
// holds its deterministic cells to the committed file.
func TestExperiments(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation distorts the timings the figures race")
	}
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	var figs []figure
	for _, d := range experiments {
		t.Run(d.name, func(t *testing.T) {
			figs = append(figs, d.run(&run{tb: t, full: *update, procs: procs}))
		})
	}
	if t.Failed() {
		return
	}
	doc := render(figs, *update)
	if *update {
		if len(figs) != len(experiments) {
			t.Fatalf("-update ran %d of the %d experiments; run the whole TestExperiments to rewrite the file", len(figs), len(experiments))
		}
		if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/repro -run TestExperiments -update)", err)
	}
	committed := string(raw)
	if len(figs) < len(experiments) {
		committed = sectionsOf(committed, doc)
	}
	if diffs := compare(doc, committed); len(diffs) > 0 {
		t.Fatalf("docs/EXPERIMENTS.md differs from a fresh run in %d lines (regenerate with: go test ./internal/repro -run TestExperiments -update):\n%s",
			len(diffs), strings.Join(diffs[:min(len(diffs), 10)], "\n"))
	}
}

// BenchmarkFigures times each experiment as a plain test run computes it
// (Figure 15 at its reduced thresholds).
func BenchmarkFigures(b *testing.B) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	for _, d := range experiments {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.run(&run{tb: b, procs: procs})
			}
		})
	}
}

// render prints the report. The machine line is a timing like any other:
// a check run keeps the committed one.
func render(figs []figure, full bool) string {
	var b strings.Builder
	b.WriteString(`# Pass-Join evaluation, reproduced

The paper's §6 (Table 2, Figures 11–16, Table 3) and four ablations beyond
it, on the synthetic corpora of internal/dataset at scale small (author 5000,
querylog 2000 and authortitle 1200 strings) and seed 1. This file is
generated; regenerate it with

    go test ./internal/repro -run TestExperiments -update

In every table the columns in the paper's units come first: selected
substrings, candidates, signature rejects, verifications, DP cells, results,
index bytes. They are deterministic, and a plain ` + "`go test ./internal/repro`" + `
recomputes them and fails on any difference from this file. The columns
whose header ends in "ms" (and Ablation C's speedup) are one run on the
machine below and are not compared; compare their shapes (orderings, ratios,
growth), not their values, with the paper's. Every figure runs at
GOMAXPROCS=1, as the paper's single-threaded methods did, except Ablation C.

`)
	machine := newTable("", "Go", "GOOS/GOARCH", "CPUs", "CPU")
	if full {
		machine.add(runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH, runtime.NumCPU(), cpuModel())
	} else {
		machine.add(keep, keep, keep, keep)
	}
	machine.write(&b)
	for _, f := range figs {
		fmt.Fprintf(&b, "\n## %s\n", f.title)
		if f.note != "" {
			fmt.Fprintf(&b, "\n%s\n", f.note)
		}
		for _, t := range f.tables {
			if t.name != "" {
				fmt.Fprintf(&b, "\n### %s\n", t.name)
			}
			b.WriteString("\n")
			t.write(&b)
		}
	}
	return b.String()
}

func (t *table) write(b *strings.Builder) {
	b.WriteString(rowLine(t.header))
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString(rowLine(sep))
	for _, r := range t.rows {
		b.WriteString(rowLine(r))
	}
}

func rowLine(cells []string) string {
	return "| " + strings.Join(cells, " | ") + " |\n"
}

// sectionsOf keeps the committed file's preamble and those of its sections
// whose heading fresh also has, so a filtered run (-run
// TestExperiments/fig15) is compared with its own figures only.
func sectionsOf(committed, fresh string) string {
	parts := strings.Split(committed, "\n## ")
	kept := parts[:1]
	for _, p := range parts[1:] {
		title, _, _ := strings.Cut(p, "\n")
		if strings.Contains(fresh, "\n## "+title+"\n") {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "\n## ")
}

// compare returns the lines where committed differs from fresh, once every
// keep cell of fresh has taken the committed file's value.
func compare(fresh, committed string) []string {
	fl := strings.Split(fresh, "\n")
	cl := strings.Split(committed, "\n")
	var diffs []string
	for i := 0; i < max(len(fl), len(cl)); i++ {
		var f, c string
		if i < len(fl) {
			f = fl[i]
		}
		if i < len(cl) {
			c = cl[i]
		}
		if strings.Contains(f, keep) {
			fc, cc := cells(f), cells(c)
			if len(fc) == len(cc) {
				for j := range fc {
					if fc[j] == keep {
						fc[j] = cc[j]
					}
				}
				f = strings.TrimSuffix(rowLine(fc), "\n")
			}
		}
		if f != c {
			diffs = append(diffs, fmt.Sprintf("line %d:\n  committed: %q\n  fresh:     %q", i+1, c, strings.ReplaceAll(f, keep, "…")))
		}
	}
	return diffs
}

// cells splits a table row into its cells; a line that is not one gives
// none.
func cells(line string) []string {
	if !strings.HasPrefix(line, "| ") || !strings.HasSuffix(line, " |") || len(line) < 4 {
		return nil
	}
	return strings.Split(line[2:len(line)-2], " | ")
}

// cpuModel names the processor, where the system says.
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
