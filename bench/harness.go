package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed budget per workload; rounds are added until it is used
	rounds   int     // > 0 fixes the round count instead
	trace    bool
	quick    bool
	jsonPath string
	outDir   string
}

// sizes fixes every corpus size and per-round operation count. Rounds run
// a fixed operation count so counters repeat exactly and run length is the
// same on both sides of a comparison; only the number of rounds follows
// the time budget.
type sizes struct {
	AuthorN     int `json:"author_n"`
	TitleN      int `json:"title_n"`
	QueryN      int `json:"query_n"`
	JoinSample  int `json:"join_sample"`    // brute-force join oracle subsample
	OracleQuery int `json:"oracle_queries"` // brute-force search oracle queries
	SearchOps   int `json:"search_ops"`     // per client goroutine per end-to-end round
	ChurnOps    int `json:"churn_ops"`
	ServeOps    int `json:"serve_ops"`
	ClusterOps  int `json:"cluster_ops"`
	// The traced pass measures single rounds, so its rounds are longer:
	// tail.p99_us wants at least a hundred samples beyond it.
	TraceSearchOps  int `json:"trace_search_ops"`
	TraceServeOps   int `json:"trace_serve_ops"`
	TraceClusterOps int `json:"trace_cluster_ops"`
	SetupReps       int `json:"setup_reps"`   // at most; at least 3, and no more once they have taken setupBudget
	RungReps        int `json:"rung_reps"`    // serial per-layer passes are best-of this many
	RungQueries     int `json:"rung_queries"` // queries per serial per-layer pass
	DirtyPerTier    int `json:"dirty_per_shard"`
	MinRounds       int `json:"min_rounds"`
}

// Sized on the reference box (2 cores) so that an end-to-end search round
// takes about 0.1 s (a join round is two joins, 0.7-1.1 s): the quietest
// round then fits between two disturbances of the box, and a run holds a
// hundred or more of them (README.md, "Estimator"). A churn-lib round is
// one compaction threshold per shard (about 2 s), so that every round
// holds the same number of compactions, and >= 8 000 inserts.
var fullSizes = sizes{
	AuthorN: 100000, TitleN: 20000, QueryN: 50000,
	JoinSample: 2000, OracleQuery: 200,
	SearchOps: 5000, ChurnOps: 40960, ServeOps: 2000, ClusterOps: 750,
	TraceSearchOps: 15000, TraceServeOps: 15000, TraceClusterOps: 7500,
	SetupReps: 15, RungReps: 5, RungQueries: 20000,
	DirtyPerTier: 2048, MinRounds: 3,
}

// quickSizes keep every workload, oracle and rung running in a few
// seconds for `go test`; the numbers they produce mean nothing.
var quickSizes = sizes{
	AuthorN: 3000, TitleN: 400, QueryN: 1000,
	JoinSample: 300, OracleQuery: 40,
	SearchOps: 2000, ChurnOps: 1000, ServeOps: 300, ClusterOps: 200,
	TraceSearchOps: 2000, TraceServeOps: 300, TraceClusterOps: 200,
	SetupReps: 1, RungReps: 1, RungQueries: 500,
	DirtyPerTier: 64, MinRounds: 1,
}

// harness is the state shared by the workloads of one run.
type harness struct {
	opts    options
	sz      sizes
	clients int // C = min(nproc, 4) closed-loop client goroutines / keep-alive connections
	out     io.Writer
	tmpSeq  int
	// clockRef is the reference spin timed between the rounds of the
	// current workload (see clockRefMs).
	clockRef []float64
}

func newHarness(opts options, out io.Writer) *harness {
	h := &harness{opts: opts, sz: fullSizes, out: out}
	if opts.quick {
		h.sz = quickSizes
	}
	h.clients = min(runtime.NumCPU(), runtime.GOMAXPROCS(0), 4)
	return h
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.out, format+"\n", args...)
}

// daemonLogger is passjoind's default logger (text handler, info level)
// with its output discarded: records are still formatted, as in the
// product, but nothing reaches a terminal.
func daemonLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// tempDir makes a fresh directory under the output directory: the
// benchmark writes nowhere outside its checkout.
func (h *harness) tempDir(label string) (string, error) {
	h.tmpSeq++
	dir := filepath.Join(h.opts.outDir, fmt.Sprintf("tmp-%d-%s-%d", os.Getpid(), label, h.tmpSeq))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setupBudget bounds the time spent repeating a workload's set-up: a
// 0.1 s index build is repeated SetupReps times, a 0.6 s one seven.
const setupBudget = 4 * time.Second

// setupAgain reports whether to set up once more, given the set-up times
// (seconds) measured so far.
func (h *harness) setupAgain(times []float64) bool {
	spent := 0.0
	for _, t := range times {
		spent += t
	}
	return len(times) < min(3, h.sz.SetupReps) || (len(times) < h.sz.SetupReps && spent < setupBudget.Seconds())
}

// budget is the timed budget of one workload.
func (h *harness) budget() time.Duration {
	return time.Duration(h.opts.seconds * float64(time.Second))
}

// timedRounds runs round(0), round(1), ... after the caller's warm-up:
// exactly -rounds of them when set, otherwise at least MinRounds and then
// as many as fit the time budget (a round is started when at least half of
// it is expected to fit). It returns the number of rounds run. The clock
// reference is taken between rounds, twice a second at most.
func (h *harness) timedRounds(round func(r int)) int {
	start := time.Now()
	var lastRef time.Time
	r := 0
	for ; ; r++ {
		if time.Since(lastRef) >= 500*time.Millisecond {
			h.clockRef = append(h.clockRef, clockRefMs())
			lastRef = time.Now()
		}
		if h.opts.rounds > 0 {
			if r >= h.opts.rounds {
				break
			}
		} else if r >= h.sz.MinRounds {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(2*r) >= h.budget() {
				break
			}
		}
		round(r)
	}
	return r
}

var clockSink uint64

// clockRefMs times a fixed multiply-latency-bound loop (about 5 ms). Its
// duration is inversely proportional to the core's clock and to nothing
// else, so the result file shows which clock the rounds ran at: on the
// reference box it sits on plateaus between 4.9 and 5.9 ms that last
// seconds to minutes, and CPU-bound rounds move with it (README.md,
// "Estimator"). It is recorded, never used to adjust a measurement.
func clockRefMs() float64 {
	start := time.Now()
	h := uint64(1469598103934665603)
	for i := uint64(0); i < 5_000_000; i++ {
		h = (h ^ i) * 1099511628211
	}
	clockSink += h
	return float64(time.Since(start)) / 1e6
}

// inParallel runs fn(g) on C goroutines and waits for them; it returns the
// wall time from the common start to the last finish.
func (h *harness) inParallel(fn func(g int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < h.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocCounters reads the cumulative allocation counters.
func allocCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// wlResult is everything one workload reports.
type wlResult struct {
	Name      string                   `json:"name"`
	Metrics   map[string]*metricResult `json:"metrics"`
	Counters  map[string]int64         `json:"counters"` // exact at a fixed seed and op count
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	ErrorRate float64                  `json:"error_rate"`
	Failures  []string                 `json:"failures,omitempty"` // first few, for diagnosis
	Rounds    int                      `json:"rounds"`
	GenS      float64                  `json:"harness_gen_s"` // corpus/query generation, not a metric
	WallS     float64                  `json:"wall_s"`
	Info      map[string]float64       `json:"info,omitempty"` // context numbers that are not metrics
	SpanFile  string                   `json:"span_file,omitempty"`
	// ClockRefMs is clockRefMs() between timed rounds, twice a second at most.
	ClockRefMs []float64 `json:"clock_ref_ms,omitempty"`

	mu sync.Mutex
}

func newResult(name string) *wlResult {
	return &wlResult{
		Name:     name,
		Metrics:  map[string]*metricResult{},
		Counters: map[string]int64{},
		Info:     map[string]float64{},
	}
}

// ok counts n attempted operations that succeeded.
func (r *wlResult) ok(n int) {
	r.mu.Lock()
	r.Attempted += int64(n)
	r.mu.Unlock()
}

// failure marks one already-counted operation as failed and keeps the
// first few messages.
func (r *wlResult) failure(format string, args ...any) {
	r.mu.Lock()
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// fail counts one attempted operation that failed.
func (r *wlResult) fail(format string, args ...any) {
	r.ok(1)
	r.failure(format, args...)
}

// check counts one attempted operation, failed unless cond holds.
func (r *wlResult) check(cond bool, format string, args ...any) {
	if cond {
		r.ok(1)
	} else {
		r.fail(format, args...)
	}
}

// set records a single-valued metric.
func (r *wlResult) set(specs []metricSpec, name string, v float64) {
	s, ok := specFor(specs, name)
	if !ok {
		panic("bench: metric not in spec: " + name)
	}
	r.Metrics[name] = &metricResult{Value: v, Unit: s.Unit, Exact: s.Exact}
}

// layer records one per-layer metric.
func (r *wlResult) layer(name string, v float64) { r.set(perLayerSpecs, name, v) }

// rounds records an end-to-end metric from its per-round values.
func (r *wlResult) rounds(name string, vals []float64) {
	s, ok := specFor(endToEndSpecs, name)
	if !ok {
		panic("bench: metric not in spec: " + name)
	}
	r.Metrics[name] = summarize(s, vals)
}

// finish fills the derived fields and, for a traced run, every per-layer
// metric the workload did not touch (a layer off its path did no work: 0).
func (r *wlResult) finish(traced bool, wall time.Duration) {
	r.WallS = wall.Seconds()
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
	if traced {
		for _, s := range perLayerSpecs {
			if _, ok := r.Metrics[s.Name]; !ok {
				r.Metrics[s.Name] = &metricResult{Unit: s.Unit, Exact: s.Exact}
			}
		}
	}
}

// bestOf runs fn reps times and returns the shortest duration.
func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// setupTimes summarizes repeated set-ups: the median is the reported
// setup_s, the best is kept for context.
func (r *wlResult) setupTimes(times []float64) {
	s, _ := specFor(endToEndSpecs, mSetupS)
	med := median(times)
	r.Metrics[mSetupS] = &metricResult{Value: med, Unit: s.Unit, Median: med, Spread: spread(times), Rounds: times}
	r.Info["setup_best_s"] = quietest(times, lowerIs)
}
