package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	// le is inclusive: 0.5 and 1 land in le=1; 1.5 and 10 in le=10;
	// 99 and 100 in le=100; 101 and 1e9 in +Inf.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 8 {
		t.Errorf("Count() = %d, want 8", got)
	}
	wantSum := 0.5 + 1 + 1.5 + 10 + 99 + 100 + 101 + 1e9
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("Sum() = %g, want %g", got, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(ExpBuckets(1e-6, 4, 12))
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count() = %d, want %d", got, goroutines*per)
	}
	if got, want := h.Sum(), float64(goroutines*per)*1e-5; math.Abs(got-want) > want*1e-9 {
		t.Fatalf("Sum() = %g, want %g", got, want)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	for _, fn := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("ExpBuckets with bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name_total", "fine")
	for name, fn := range map[string]func(){
		"bad metric name": func() { r.Counter("bad-name", "x") },
		"bad label name":  func() { r.CounterVec("ok2_total", "x", "bad-label") },
		"duplicate":       func() { r.Counter("ok_name_total", "again") },
		"bad hist bounds": func() { r.HistogramVec("h_x", "x", []float64{2, 1}) },
		"bad lazy type":   func() { r.Collect("lazy_x", "x", "histogram", nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "status")
	a := v.With("/v1/search", "200")
	b := v.With("/v1/search", "200")
	if a != b {
		t.Fatal("same label values returned distinct series")
	}
	c := v.With("/v1/search", "400")
	if a == c {
		t.Fatal("different label values returned the same series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch did not panic")
		}
	}()
	v.With("/v1/search")
}

func TestWriteToBasic(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a\nwith newline").Add(3)
	v := r.CounterVec("b_total", `counts b with \ and "`, "kind")
	v.With(`x"y\z`).Add(1)
	r.GaugeFunc("g", "a gauge", func() float64 { return 2.5 })
	h := r.HistogramVec("lat_seconds", "latency", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n != int64(len(out)) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, len(out))
	}
	for _, want := range []string{
		"# HELP a_total counts a\\nwith newline\n",
		"# TYPE a_total counter\n",
		"a_total 3\n",
		`b_total{kind="x\"y\\z"} 1` + "\n",
		"# TYPE g gauge\n",
		"g 2.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "# HELP a_total") > strings.Index(out, "# HELP b_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"go_goroutines", "go_heap_objects_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total"} {
		if !strings.Contains(out, "\n"+name+" ") && !strings.HasPrefix(out, name+" ") {
			t.Errorf("runtime exposition missing series %q", name)
		}
	}
}

func TestTraceNesting(t *testing.T) {
	tr := &QueryTrace{}
	tr.Begin(PhaseProbe)
	time.Sleep(2 * time.Millisecond)
	tr.Begin(PhaseVerify) // pauses probe
	time.Sleep(2 * time.Millisecond)
	tr.End(PhaseVerify) // resumes probe
	time.Sleep(2 * time.Millisecond)
	tr.End(PhaseProbe)

	probe, verify := tr.Phase(PhaseProbe), tr.Phase(PhaseVerify)
	if probe.Nanos <= 0 || verify.Nanos <= 0 {
		t.Fatalf("phases not recorded: probe=%d verify=%d", probe.Nanos, verify.Nanos)
	}
	// Exclusive times: probe ~4ms, verify ~2ms; probe must exceed verify.
	if probe.Nanos <= verify.Nanos {
		t.Errorf("probe (%d ns) should exceed verify (%d ns): child time leaked into parent", probe.Nanos, verify.Nanos)
	}
	if got := tr.TotalNanos(); got != probe.Nanos+verify.Nanos {
		t.Errorf("TotalNanos() = %d, want %d", got, probe.Nanos+verify.Nanos)
	}
}

func TestTraceReset(t *testing.T) {
	a := &QueryTrace{}
	a.AddCount(PhaseDedup, 3)
	a.phases[PhaseDedup].Nanos = 100
	if got := a.Phase(PhaseDedup); got.Count != 3 || got.Nanos != 100 {
		t.Fatalf("dedup = %+v, want {100 3}", got)
	}
	a.Reset()
	if got := a.Phase(PhaseDedup); got != (PhaseStat{}) {
		t.Fatalf("after Reset, dedup = %+v", got)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *QueryTrace
	tr.Begin(PhaseSelect)
	tr.AddCount(PhaseSelect, 5)
	tr.End(PhaseSelect)
	tr.Reset()
	if tr.TotalNanos() != 0 || tr.Phase(PhaseSelect) != (PhaseStat{}) {
		t.Fatal("nil trace returned nonzero stats")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Begin(PhaseProbe)
		tr.AddCount(PhaseProbe, 1)
		tr.End(PhaseProbe)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace ops allocate: %v allocs/op", allocs)
	}
}

func TestTraceZeroAlloc(t *testing.T) {
	tr := &QueryTrace{}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Begin(PhaseProbe)
		tr.Begin(PhaseDedup)
		tr.AddCount(PhaseDedup, 1)
		tr.End(PhaseDedup)
		tr.End(PhaseProbe)
	})
	if allocs != 0 {
		t.Fatalf("active trace ops allocate: %v allocs/op", allocs)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseSelect: "selection", PhaseProbe: "probe",
		PhaseDedup: "dedup", PhaseVerify: "verify",
		NumPhases: "unknown",
	}
	for p, w := range want {
		if got := p.String(); got != w {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, w)
		}
	}
}
