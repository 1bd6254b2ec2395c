package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
	"passjoin/internal/index"
	"passjoin/internal/metrics"
	"passjoin/internal/selection"
)

// workOnly strips what legitimately differs between the serial and the
// parallel mode from a join's stats: the footprint of a window of groups
// against that of the whole index.
func workOnly(st metrics.Stats) metrics.Stats {
	st.IndexBytes, st.IndexEntries, st.PeakLiveGroups = 0, 0, 0
	return st
}

// boundaryCorpus returns, shuffled, n strings of twelve bytes — near copies
// of a few bases, so the group is dense with pairs — five of which are one
// string that sorts to positions 1021..1025 of the group: duplicates on both
// sides of the first chunk boundary. A hundred strings of eleven bytes join
// them, so that lists are also met from a length away.
func boundaryCorpus(t *testing.T, n int) []string {
	rng := rand.New(rand.NewSource(int64(n)))
	distinct := map[string]bool{}
	for len(distinct) < n-4 {
		b := []byte("abcabcabcabc")
		for e := rng.Intn(4); e > 0; e-- {
			b[rng.Intn(len(b))] = "abc"[rng.Intn(3)]
		}
		distinct[string(b)] = true
	}
	strs := make([]string, 0, n+100)
	for s := range distinct {
		strs = append(strs, s)
	}
	slices.Sort(strs)
	dup := strs[min(1021, len(strs)-1)]
	strs = append(strs, dup, dup, dup, dup)
	slices.Sort(strs)
	if at := slices.Index(strs, dup); n > 1024 && (at > 1023 || at+4 < 1024) {
		t.Fatalf("duplicates at %d..%d do not straddle position 1024", at, at+4)
	}
	for k := 0; k < 100; k++ {
		s := strs[rng.Intn(n)]
		cut := rng.Intn(len(s))
		strs = append(strs, s[:cut]+s[cut+1:])
	}
	rng.Shuffle(len(strs), func(i, j int) { strs[i], strs[j] = strs[j], strs[i] })
	return strs
}

// TestChunkBoundaries: a length group of exactly one chunk, one string less
// and one string more, with duplicates across the boundary, joins to what
// brute force finds, serial and on two and three workers, with the same
// work in every mode — and with the work of the string-at-a-time loop the
// chunks replaced, whose counters on these corpora are pinned here.
func TestChunkBoundaries(t *testing.T) {
	type counters struct{ Lookups, LookupHits, Candidates, SigRejects, Verifications, DPCells, SharedRows, Results int64 }
	pinned := map[int]counters{ // from the commit before the block loop
		1023: {9697, 7135, 237770, 6543, 222139, 693552, 890104, 29258},
		1024: {9706, 7199, 243320, 6372, 228075, 704228, 897056, 28853},
		1025: {9715, 7089, 244297, 7554, 227260, 712696, 910404, 29678},
	}
	for _, n := range []int{1023, 1024, 1025} {
		strs := boundaryCorpus(t, n)
		want := make([]Pair, 0)
		for _, p := range bruteforce.SelfJoin(strs, 2) {
			want = append(want, Pair{p.R, p.S})
		}
		SortPairs(want)
		var serial metrics.Stats
		got, err := SelfJoin(strs, Options{Tau: 2, Stats: &serial})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d serial: %d pairs, brute force %d", n, len(got), len(want))
		}
		c := counters{serial.Lookups, serial.LookupHits, serial.Candidates, serial.SigRejects, serial.Verifications, serial.DPCells, serial.SharedRows, serial.Results}
		if c != pinned[n] {
			t.Errorf("n=%d: counters\n got %+v\nwant %+v", n, c, pinned[n])
		}
		for _, workers := range []int{2, 3} {
			var st metrics.Stats
			got, err := SelfJoin(strs, Options{Tau: 2, Stats: &st, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: %d pairs, brute force %d", n, workers, len(got), len(want))
			}
			if workOnly(st) != workOnly(serial) {
				t.Errorf("n=%d workers=%d: stats differ from the serial join's:\n serial   %+v\n parallel %+v", n, workers, serial, st)
			}
		}
	}
}

// TestFirstOfLengthAtChunkStart: of n copies of one string each but the
// first probes its own length's group, with the same lookups — so a join of
// n makes n−1 times the lookups of a join of two, whether the group is one
// chunk or two: the string at the start of the second chunk is not the
// first of its length and probes like any other, and the one at the start
// of the first never does. Every pair is found, each once, through a set of
// settled pairs that outgrows its first table.
func TestFirstOfLengthAtChunkStart(t *testing.T) {
	lookups := func(n, workers int) int64 {
		strs := make([]string, n)
		for k := range strs {
			strs[k] = "pass-join"
		}
		var st metrics.Stats
		pairs := 0
		opt, emit := Options{Tau: 1, Stats: &st, Parallel: workers}, func(Pair) bool { pairs++; return true }
		if err := SelfJoinEach(context.Background(), strs, opt, emit); err != nil {
			t.Fatal(err)
		}
		if want := n * (n - 1) / 2; pairs != want || st.Results != int64(want) || st.Verifications != int64(want) {
			t.Fatalf("n=%d workers=%d: %d pairs, Results %d, Verifications %d; want %d of each", n, workers, pairs, st.Results, st.Verifications, want)
		}
		return st.Lookups
	}
	for _, workers := range []int{0, 2} {
		per := lookups(2, workers)
		if per == 0 {
			t.Fatal("a join of two copies made no lookup")
		}
		for _, n := range []int{1, 1023, 1024, 1025, 1100} {
			if got, want := lookups(n, workers), int64(n-1)*per; got != want {
				t.Errorf("n=%d workers=%d: %d lookups, want %d: (n-1) times the %d of one string", n, workers, got, want, per)
			}
		}
	}
}

// TestJoinMatrix holds every verifier under every selection method, serial
// and on two and three workers, to brute force, on corpora whose length
// groups run to several batches: a self join, and an R≠S join whose probe
// strings are all shorter than what they find (negative Δ).
func TestJoinMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var sset []string
	for _, g := range []struct {
		n    int
		base string
	}{{70, "abcabcabcabcab"}, {150, "cabbacabbacabba"}, {66, "bcabcabcabcabcab"}} {
		for k := 0; k < g.n; k++ {
			sset = append(sset, mutateSub(rng, g.base, rng.Intn(4)))
		}
	}
	var rset []string
	for k := 0; k < 140; k++ {
		s := mutateSub(rng, sset[rng.Intn(len(sset))], rng.Intn(2))
		cut := rng.Intn(len(s) - 1)
		rset = append(rset, s[:cut]+s[cut+2:])
	}
	const tau = 2
	wantSelf := make([]Pair, 0)
	for _, p := range bruteforce.SelfJoin(sset, tau) {
		wantSelf = append(wantSelf, Pair{p.R, p.S})
	}
	wantRS := make([]Pair, 0)
	for _, p := range bruteforce.Join(rset, sset, tau) {
		wantRS = append(wantRS, Pair{p.R, p.S})
	}
	SortPairs(wantSelf)
	SortPairs(wantRS)
	if len(wantSelf) < 1000 || len(wantRS) < 100 {
		t.Fatalf("thin corpora: %d self pairs, %d R-S pairs", len(wantSelf), len(wantRS))
	}
	for _, vk := range VerifyKinds {
		for _, sel := range selection.Methods {
			for _, workers := range []int{0, 2, 3} {
				opt := Options{Tau: tau, Selection: sel, Verification: vk, Parallel: workers}
				label := fmt.Sprintf("%v/%v/workers=%d", vk, sel, workers)
				got, err := SelfJoin(sset, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, wantSelf) {
					t.Fatalf("%s self: %d pairs, brute force %d", label, len(got), len(wantSelf))
				}
				got, err = Join(rset, sset, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, wantRS) {
					t.Fatalf("%s R-S: %d pairs, brute force %d", label, len(got), len(wantRS))
				}
			}
		}
	}
}

// mutateSub substitutes k bytes of s, keeping its length.
func mutateSub(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for ; k > 0; k-- {
		b[rng.Intn(len(b))] = "abc"[rng.Intn(3)]
	}
	return string(b)
}

// TestEarlyStopMidBatch: an emit that says stop at the k-th pair — inside a
// batch of a chunk thick with pairs — has been handed exactly k pairs, the
// join counts k results, and no goroutine is left behind, in all four
// joins. An emit that panics at the k-th pair hands its panic to the caller
// of a serial join, which leaves no goroutine behind either, and the next
// join of the corpus finds every pair. The serial joins run at GOMAXPROCS 1
// and 4: one lookup goroutine, and four.
func TestEarlyStopMidBatch(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() { checkEarlyStop(t) })
	}
}

func checkEarlyStop(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(25))
	var strs []string
	for k := 0; k < 300; k++ {
		strs = append(strs, mutateSub(rng, "kaushik chakrabarti", rng.Intn(2)))
	}
	rset := strs[:120]
	serial := map[string][]Pair{} // what each serial join finds, by brute force
	for _, p := range bruteforce.SelfJoin(strs, 2) {
		serial["serial SelfJoinEach"] = append(serial["serial SelfJoinEach"], Pair(p))
	}
	for _, p := range bruteforce.Join(rset, strs, 2) {
		serial["serial JoinEach"] = append(serial["serial JoinEach"], Pair(p))
	}
	for _, ps := range serial {
		SortPairs(ps)
	}
	before := runtime.NumGoroutine()
	for _, k := range []int{1, 7, 100, 1000} {
		joins := map[string]func(opt Options, emit func(Pair) bool) error{
			"serial SelfJoinEach": func(opt Options, emit func(Pair) bool) error {
				return SelfJoinEach(context.Background(), strs, serialOpt(opt), emit)
			},
			"serial JoinEach": func(opt Options, emit func(Pair) bool) error {
				return JoinEach(context.Background(), rset, strs, serialOpt(opt), emit)
			},
			"SelfJoinEach": func(opt Options, emit func(Pair) bool) error {
				return SelfJoinEach(context.Background(), strs, opt, emit)
			},
			"JoinEach": func(opt Options, emit func(Pair) bool) error {
				return JoinEach(context.Background(), rset, strs, opt, emit)
			},
		}
		for name, join := range joins {
			for _, vk := range []VerifyKind{VerifyExtensionShared, VerifyMyers} {
				var st metrics.Stats
				n := 0
				err := join(Options{Tau: 2, Verification: vk, Stats: &st, Parallel: 2}, func(Pair) bool { n++; return n < k })
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d %s %v k=%d: %v", procs, name, vk, k, err)
				}
				if n != k || st.Results != int64(k) {
					t.Fatalf("GOMAXPROCS=%d %s %v k=%d: %d pairs delivered, Results %d", procs, name, vk, k, n, st.Results)
				}
				want, ok := serial[name]
				if !ok {
					continue
				}
				opt := Options{Tau: 2, Verification: vk}
				n = 0
				v := panicked(func() {
					join(opt, func(Pair) bool {
						if n++; n == k {
							panic("emit bails")
						}
						return true
					})
				})
				if v != "emit bails" || n != k {
					t.Fatalf("GOMAXPROCS=%d %s %v k=%d: recovered %v after %d pairs, want the emit's panic at pair %d", procs, name, vk, k, v, n, k)
				}
				got, err := collect(func(emit func(Pair) bool) error { return join(opt, emit) })
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d %s %v k=%d: after the panic the join finds %d pairs (err %v), brute force %d", procs, name, vk, k, len(got), err, len(want))
				}
			}
		}
	}
	waitGoroutines(t, before)
}

// TestEarlyStopStatsAcrossProcs: a default join stopped at its k-th pair has
// counted the same work at GOMAXPROCS 1 and 4 — the lookups that filled the
// batches its verify stage took, however far its lookup goroutines ran
// ahead — self and R≠S, under an extension and a whole-string verifier. The
// window's footprint (IndexBytes, IndexEntries, PeakLiveGroups) is not work:
// it is the peak over the slides the lookups had reached, which depends on
// how far ahead they ran, and is not compared.
func TestEarlyStopStatsAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	strs := dataset.Author(4000, 5)
	for k := 0; k < 300; k++ {
		strs = append(strs, mutateSub(rng, "kaushik chakrabarti", rng.Intn(3)))
	}
	var rset []string
	for k := 0; k < len(strs); k += 3 {
		rset = append(rset, strs[k])
	}
	joins := map[string]func(opt Options, emit func(Pair) bool) error{
		"SelfJoinEach": func(opt Options, emit func(Pair) bool) error {
			return SelfJoinEach(context.Background(), strs, opt, emit)
		},
		"JoinEach": func(opt Options, emit func(Pair) bool) error {
			return JoinEach(context.Background(), rset, strs, opt, emit)
		},
	}
	for name, join := range joins {
		for _, vk := range []VerifyKind{VerifyExtensionShared, VerifyMyers} {
			for _, k := range []int{1, 7, 100, 1000} {
				var at [2]metrics.Stats
				for w, procs := range []int{1, 4} {
					n := 0
					var err error
					withProcs(procs, func() {
						err = join(Options{Tau: 2, Verification: vk, Stats: &at[w]}, func(Pair) bool { n++; return n < k })
					})
					if err != nil || n != k {
						t.Fatalf("%s %v k=%d GOMAXPROCS=%d: %d pairs delivered (err %v)", name, vk, k, procs, n, err)
					}
				}
				if workOnly(at[0]) != workOnly(at[1]) {
					t.Errorf("%s %v k=%d: stats differ\n GOMAXPROCS=1 %+v\n GOMAXPROCS=4 %+v", name, vk, k, at[0], at[1])
				}
			}
		}
	}
}

// serialOpt is opt for the sequential windowed scan, whatever parallelism
// it asked for.
func serialOpt(opt Options) Options {
	opt.Parallel = 1
	return opt
}

// panicked runs f and returns what it panicked with; nil if it returned.
func panicked(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// withProcs runs f at GOMAXPROCS n, and then restores GOMAXPROCS.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// waitGoroutines fails t unless the goroutines are back to before within a
// second: whatever the joins started has exited.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines after the joins, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(wait)
	}
}

// TestLookupPanicSurfacesAsError: a panic in a serial join's lookup stage —
// in the window's slide, at the corpus's second length, or in a lookup
// goroutine's own work, here a signature table cut short — comes back from
// the scan as an error, as a stream worker's does, and leaves no goroutine
// behind, at GOMAXPROCS 1 and 4.
func TestLookupPanicSurfacesAsError(t *testing.T) {
	ref, _, off, sig, err := sortRecs([]string{"abcd", "abce", "abcde", "abcdf"}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		for _, where := range []string{"slide", "lookup"} {
			win, err := index.NewWindow(ref, off, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := newProber(1, selection.MultiMatch, VerifyExtensionShared, nil, nil, win.Frozen(), ref, sig)
			want := "slide blew up"
			if where == "lookup" {
				p.sig, want = sig[:2], "out of range"
			}
			j := newBlockJoin(p, off, true)
			p.emit = func(int32, int32) bool { return true }
			before := runtime.NumGoroutine()
			withProcs(procs, func() {
				err = j.pipe(context.Background(), ref, chunksOf(off), func(l int) {
					if where == "slide" && l == 5 {
						panic("slide blew up")
					}
					win.Slide(l-1, l)
				})
			})
			if err == nil || !strings.Contains(err.Error(), "join lookup panic") || !strings.Contains(err.Error(), want) {
				t.Fatalf("GOMAXPROCS=%d %s: err = %v, want the lookup stage's panic", procs, where, err)
			}
			waitGoroutines(t, before)
		}
	}
}

// TestTickStopsWithinABatch: a join worker looks up between batches — a tick
// after every resolved batch and nowhere else — so one that is told to stop
// on the m-th has made exactly m batches' lookups, in a chunk of a self join
// and of an R≠S join alike.
func TestTickStopsWithinABatch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	strs := make([]string, 0, 400)
	for len(strs) < cap(strs) {
		strs = append(strs, mutateSub(rng, "surajit chaudhuri", 3))
	}
	ref, _, off, sig, err := sortRecs(strs, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := index.BuildFrozen(ref, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4 // the chunk: ref[64:320], not at the start of its length
	chunk := ref[index.BlockBatchSize : (1+batches)*index.BlockBatchSize]
	for _, self := range []bool{true, false} {
		for _, m := range []int{1, 2, batches, batches + 1, 3*batches + 2} {
			var st metrics.Stats
			p := newProber(2, selection.MultiMatch, VerifyExtensionShared, &st, nil, fz, ref, sig)
			j := newBlockJoin(p, off, self)
			p.emit = func(int32, int32) bool { return true }
			ticks := 0
			j.tick = func() bool { ticks++; return ticks < m }
			if j.probeBlock(chunk, index.BlockBatchSize) {
				t.Fatalf("self=%v m=%d: the chunk ran to its end through a tick that said stop", self, m)
			}
			if want := int64(m * index.BlockBatchSize); ticks != m || st.Lookups != want {
				t.Fatalf("self=%v m=%d: %d ticks, %d lookups; want %d ticks and %d lookups", self, m, ticks, st.Lookups, m, want)
			}
		}
	}
}

// TestCancelMidChunk: a context cancelled while a worker is inside a chunk
// stops the join there, not at the chunk's end: the one chunk of this corpus
// is never counted as scanned. (The worker has a few thousand batches to go
// when the first pair reaches the consumer.) Both modes run at GOMAXPROCS 1
// and 4.
func TestCancelMidChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	strs := make([]string, 0, blockChunk)
	for len(strs) < cap(strs) {
		strs = append(strs, mutateSub(rng, strings.Repeat("abcab", 12), 6))
	}
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			var st metrics.Stats
			var err error
			withProcs(procs, func() {
				err = SelfJoinEach(ctx, strs, Options{Tau: 8, Stats: &st, Parallel: workers}, func(Pair) bool {
					cancel()
					return true
				})
			})
			cancel()
			if err != context.Canceled {
				t.Fatalf("GOMAXPROCS=%d workers=%d: err = %v, want context.Canceled", procs, workers, err)
			}
			if st.Strings != 0 || st.Lookups == 0 {
				t.Fatalf("GOMAXPROCS=%d workers=%d: %d strings scanned after %d lookups; the chunk should have been abandoned", procs, workers, st.Strings, st.Lookups)
			}
		}
	}
}

// TestCancelStopsLookupStage: a serial join's lookup stage notices a
// cancelled ctx at its next tick, not only once the verify stage takes a
// batch — in this join of random strings no candidate survives to fill
// one, so it would otherwise slide through every length — and the scan
// returns ctx.Err() with no goroutine left behind, at GOMAXPROCS 1 and 4.
func TestCancelStopsLookupStage(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var strs []string
	for l := 20; l < 40; l++ {
		for range 2 * index.BlockBatchSize {
			b := make([]byte, l)
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			strs = append(strs, string(b))
		}
	}
	ref, _, off, sig, err := sortRecs(strs, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		win, err := index.NewWindow(ref, off, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := newProber(1, selection.MultiMatch, VerifyExtensionShared, nil, nil, win.Frozen(), ref, sig)
		j := newBlockJoin(p, off, true)
		p.emit = func(int32, int32) bool { return true }
		ctx, cancel := context.WithCancel(context.Background())
		before := runtime.NumGoroutine()
		slides := 0
		withProcs(procs, func() {
			err = j.pipe(ctx, ref, chunksOf(off), func(l int) {
				if slides++; slides == 2 {
					cancel()
				}
				win.Slide(l-1, l)
			})
		})
		cancel()
		if err != context.Canceled || slides != 2 {
			t.Fatalf("GOMAXPROCS=%d: err = %v after %d slides; want context.Canceled after 2", procs, err, slides)
		}
		waitGoroutines(t, before)
	}
}
