package main

import (
	"os"
	"runtime"
	"testing"
)

// TestAllExperimentsRun smoke-tests every experiment at tiny scale with
// stdout redirected to /dev/null; fig15's built-in result cross-check
// makes this a real correctness test, not just a crash test. The experiments
// leave GOMAXPROCS as they found it.
func TestAllExperimentsRun(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	old := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	cfg, err := newRunConfig("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, "all"); err != nil {
		t.Fatalf("experiments all: %v", err)
	}
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS %d after the experiments, %d before", got, procs)
	}
}

func TestUnknownExperiment(t *testing.T) {
	cfg, err := newRunConfig("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestUnknownScale(t *testing.T) {
	if _, err := newRunConfig("galactic", 1); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestCorpusCaching(t *testing.T) {
	cfg, err := newRunConfig("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.corpus(cfg.specs[0])
	b := cfg.corpus(cfg.specs[0])
	if &a[0] != &b[0] {
		t.Error("corpus not cached between experiments")
	}
}

func TestFormatters(t *testing.T) {
	if got := mb(1024 * 1024); got != "1.00" {
		t.Errorf("mb: %q", got)
	}
	if got := ms(1500000); got != "1.5" {
		t.Errorf("ms: %q", got)
	}
}
