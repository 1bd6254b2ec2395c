package main

import (
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"passjoin/internal/dataset"
)

// corpusSpec describes one evaluation dataset and its threshold sweep
// (matching the x-axes of Figures 12-15).
type corpusSpec struct {
	name string
	n    int
	taus []int
	// histBin is the Figure 11 histogram bin width.
	histBin int
	// edq is the default ED-Join gram length for this regime.
	edq int
}

type runConfig struct {
	scale   string
	seed    int64
	specs   []corpusSpec
	corpora map[string][]string
}

func newRunConfig(scale string, seed int64) (*runConfig, error) {
	var mult int
	switch scale {
	case "tiny": // test-sized: exercises every code path in seconds
		mult = 0
	case "small":
		mult = 1
	case "medium":
		mult = 4
	case "full":
		mult = 20
	default:
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	specs := []corpusSpec{
		{name: "author", n: 5000 * mult, taus: []int{1, 2, 3, 4}, histBin: 2, edq: 2},
		{name: "querylog", n: 2000 * mult, taus: []int{4, 5, 6, 7, 8}, histBin: 10, edq: 3},
		{name: "authortitle", n: 1200 * mult, taus: []int{5, 6, 7, 8, 9, 10}, histBin: 20, edq: 4},
	}
	if scale == "tiny" {
		specs[0].n, specs[0].taus = 250, []int{1, 2}
		specs[1].n, specs[1].taus = 120, []int{4, 5}
		specs[2].n, specs[2].taus = 80, []int{5, 6, 7, 8}
	}
	return &runConfig{scale: scale, seed: seed, specs: specs, corpora: map[string][]string{}}, nil
}

// corpus generates (and caches) the named corpus at its configured size.
func (c *runConfig) corpus(spec corpusSpec) []string {
	if strs, ok := c.corpora[spec.name]; ok {
		return strs
	}
	strs, err := dataset.ByName(spec.name, spec.n, c.seed)
	if err != nil {
		panic(err) // specs are internal; a failure is a programming error
	}
	c.corpora[spec.name] = strs
	return strs
}

// header prints an experiment banner, with the GOMAXPROCS it runs at.
func header(title string) {
	fmt.Printf("\n== %s (GOMAXPROCS=%d) ==\n", title, runtime.GOMAXPROCS(0))
}

// newTable returns a tab-aligned writer for result rows.
func newTable() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// timeIt measures f's wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ms renders a duration in milliseconds with stable formatting.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// mb renders bytes as megabytes.
func mb(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1024*1024))
}
