package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
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
// and 4: on the caller alone, and on the caller and a helper, which may hold
// a later chunk when the stop lands.
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

// TestEarlyStopStatsAcrossProcs: a default join stopped at its k-th pair
// records the same Stats at GOMAXPROCS 1 and 4 — all of the chunks up to the
// one that held the pair, however far its helper ran ahead — self and R≠S,
// under an extension and a whole-string verifier. That includes the
// window's footprint (IndexBytes, IndexEntries, PeakLiveGroups): its peak
// over the slides up to that chunk's.
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
				if at[0] != at[1] {
					t.Errorf("%s %v k=%d: stats differ\n GOMAXPROCS=1 %+v\n GOMAXPROCS=4 %+v", name, vk, k, at[0], at[1])
				}
			}
		}
	}
}

// TestEarlyStopCountsWholeChunk: a default join stopped at its k-th pair
// has counted all of the chunk that held the pair and nothing after it: its
// Stats are those of a full run over the chunks up to that one — footprint
// included — but for Results, the k pairs delivered. Self and R≠S, under an
// extension and a whole-string verifier, at GOMAXPROCS 1 and 4, with k from
// the first pair to the last.
func TestEarlyStopCountsWholeChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	strs := dataset.Author(3000, 6)
	for k := 0; k < 200; k++ {
		strs = append(strs, mutateSub(rng, "surajit chaudhuri", rng.Intn(3)))
	}
	var rset []string
	for k := 0; k < len(strs); k += 2 {
		rset = append(rset, strs[k])
	}
	const tau = 2
	for name, pl := range map[string]*joinPlan{"self": positionPlan(t, strs, nil, tau), "R≠S": positionPlan(t, rset, strs, tau)} {
		for _, vk := range []VerifyKind{VerifyExtensionShared, VerifyMyers} {
			var all []Pair // in the order a full join delivers them
			if err := pl.run(context.Background(), Options{Tau: tau, Verification: vk}, func(p Pair) bool {
				all = append(all, p)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(all) < 500 {
				t.Fatalf("%s: %d pairs, too few to stop in many chunks", name, len(all))
			}
			for _, k := range []int{1, 5, 50, 500, len(all)} {
				c := slices.IndexFunc(pl.chunks, func(c span) bool { return int(all[k-1].S) < c.hi })
				prefix := *pl
				prefix.chunks = pl.chunks[:c+1]
				var want metrics.Stats
				if err := prefix.run(context.Background(), Options{Tau: tau, Verification: vk, Stats: &want}, func(Pair) bool { return true }); err != nil {
					t.Fatal(err)
				}
				want.Results = int64(k)
				for _, procs := range []int{1, 4} {
					var got metrics.Stats
					n := 0
					withProcs(procs, func() {
						err := pl.run(context.Background(), Options{Tau: tau, Verification: vk, Stats: &got}, func(Pair) bool { n++; return n < k })
						if err != nil {
							t.Fatal(err)
						}
					})
					if got != want {
						t.Errorf("%s %v k=%d (chunk %d of %d) GOMAXPROCS=%d: stats differ from the chunks up to the stopping one\n got  %+v\n want %+v", name, vk, k, c, len(pl.chunks), procs, got, want)
					}
				}
			}
		}
	}
}

// positionPlan returns the plan of a default self join of strs (sset nil),
// or of the R≠S join of strs against sset, whose pairs name the probing
// string by its position in its sorted side (S) and the indexed one by its
// id (R).
func positionPlan(t *testing.T, strs, sset []string, tau int) *joinPlan {
	t.Helper()
	pl := &joinPlan{self: sset == nil, pair: func(cur int, rid int32) Pair { return Pair{R: rid, S: int32(cur)} }}
	var err error
	if pl.self {
		pl.ref, _, pl.off, pl.sig, err = sortRecs(strs, 1, true)
		pl.side, pl.chunks = pl.ref, chunksOf(pl.off)
	} else {
		var sideOff []int
		if pl.side, _, sideOff, _, err = sortRecs(strs, 1, false); err == nil {
			pl.chunks = chunksOf(sideOff)
			pl.ref, _, pl.off, pl.sig, err = sortRecs(sset, 1, true)
			pl.above = min(tau, len(pl.off))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return pl
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

// TestLookupPanicSurfacesAsError: a panic in a serial join — in the
// window's slide, at the corpus's second length, in a worker's lookups, here
// a signature table cut short, or in its verification, here a corpus cut
// short, so that the first task is out of range — comes back from the scan
// as an error, as a stream worker's does, and leaves no goroutine behind, at
// GOMAXPROCS 1 and 4: on the caller's goroutine, and on whichever worker
// holds a chunk. A helper alone corrupt panics as soon as it holds a chunk.
func TestLookupPanicSurfacesAsError(t *testing.T) {
	ref, _, off, sig, err := sortRecs([]string{"abcd", "abce", "abcde", "abcdf"}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		for _, where := range []string{"slide", "lookup", "verify"} {
			want := "slide blew up"
			if where != "slide" {
				want = "out of range"
			}
			before := runtime.NumGoroutine()
			withProcs(procs, func() {
				_, err = pipeOver(ref, off, sig, context.Background(), nil, func(p *prober, _ int) {
					switch where {
					case "lookup":
						p.sig = sig[:2]
					case "verify":
						p.ref = ref[:0]
					}
				}, func(l int) {
					if where == "slide" && l == 5 {
						panic("slide blew up")
					}
				})
			})
			if err == nil || !strings.Contains(err.Error(), "join worker panic") || !strings.Contains(err.Error(), want) {
				t.Fatalf("GOMAXPROCS=%d %s: err = %v, want the worker's panic", procs, where, err)
			}
			waitGoroutines(t, before)
		}
	}
	// A helper alone corrupt: each join either armed the helper, which then
	// panicked at its first task, or never armed it, the caller having
	// verified every chunk before the helper claimed one. Every string has a
	// twin, so that every chunk has tasks.
	strs := dataset.Author(3000, 3)
	ref, _, off, sig, err = sortRecs(append(strs, strs...), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	armed := 0
	for try := 0; try < 50 && armed < 3; try++ {
		helper := false
		before := runtime.NumGoroutine()
		withProcs(4, func() {
			_, err = pipeOver(ref, off, sig, context.Background(), nil, func(p *prober, w int) {
				if w > 0 {
					helper, p.ref = true, ref[:0]
				}
			}, nil)
		})
		waitGoroutines(t, before)
		if !helper {
			if err != nil {
				t.Fatalf("no helper armed, yet err = %v", err)
			}
			continue
		}
		armed++
		if err == nil || !strings.Contains(err.Error(), "join worker panic") {
			t.Fatalf("the helper armed with a corrupt corpus, yet err = %v", err)
		}
	}
	if armed == 0 {
		t.Fatal("no join of 50 armed its helper")
	}
}

// pipeOver runs the default self join of ref — sorted, off its offsets, sig
// its signatures — through pipe at τ 1, with every pair accepted, counting
// into st (nil counts nothing). corrupt sees each worker's prober as it is
// armed, and its place: 0 for the caller's, more for a helper's. slide, if
// not nil, runs before each slide.
func pipeOver(ref []string, off []int, sig []uint64, ctx context.Context, st *metrics.Stats, corrupt func(p *prober, w int), slide func(l int)) (int, error) {
	win, err := index.NewWindow(ref, off, 1)
	if err != nil {
		return 0, err
	}
	pl := &joinPlan{ref: ref, off: off, sig: sig, side: ref, chunks: chunksOf(off), self: true,
		pair: func(cur int, rid int32) Pair { return Pair{R: rid, S: int32(cur)} }}
	var mu sync.Mutex
	armed := 0
	return pl.pipe(ctx, st, func(wst *metrics.Stats) *blockJoin {
		p := newProber(1, selection.MultiMatch, VerifyExtensionShared, wst, nil, win.Frozen(), ref, sig)
		mu.Lock()
		corrupt(p, armed)
		armed++
		mu.Unlock()
		return newBlockJoin(p, off, true, pipeBatchSize)
	}, func(l int) {
		if slide != nil {
			slide(l)
		}
		win.Slide(l-1, l)
	}, func(Pair) bool { return true })
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
			j := newBlockJoin(p, off, self, taskBatchSize)
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
// stops the join there, not at the chunk's end; the chunk is not counted,
// and no goroutine is left behind; at GOMAXPROCS 1 and 4.
//
// The index-once mode meets a pair inside its one chunk — 1 024 strings of
// 60 bytes, with a few thousand batches to go when the first pair reaches
// the consumer — and the consumer cancels. The default join emits a chunk
// only once it is through, so there the window cancels: in a self join at
// τ 1 of a chunk A of 1 024 strings of length 59, the long chunk B of 1 024
// of length 60 and one string of length 61, the slide to 61 releases group
// 59, which B looks up in before group 60. It waits until B's worker has
// moved on to group 60 and A's is past its lookups, and cancels: B's worker
// stops having made at least B's lookups in group 59 and at most all of
// B's, counts no string, and B is not counted. A is counted whole or not at all;
// at GOMAXPROCS 1 whole, since it is emitted before B is claimed, and B
// stops at group 60 exactly. At GOMAXPROCS 4 B's worker may be through
// B's lookups before A's worker is through A's, and finish B before the
// slide; nothing of B is counted then either. The join is repeated until
// the helper stopped inside B.
func TestCancelMidChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	long := make([]string, 0, blockChunk)
	for len(long) < cap(long) {
		long = append(long, mutateSub(rng, strings.Repeat("abcab", 12), 6))
	}
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var st metrics.Stats
		var err error
		before := runtime.NumGoroutine()
		withProcs(procs, func() {
			err = SelfJoinEach(ctx, long, Options{Tau: 8, Stats: &st, Parallel: 2}, func(Pair) bool {
				cancel()
				return true
			})
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("GOMAXPROCS=%d index-once: err = %v, want context.Canceled", procs, err)
		}
		if st.Strings != 0 || st.Lookups == 0 {
			t.Fatalf("GOMAXPROCS=%d index-once: %d strings scanned after %d lookups; the chunk should have been abandoned", procs, st.Strings, st.Lookups)
		}
		waitGoroutines(t, before)
	}

	strs := append([]string{strings.Repeat("abcab", 12) + "a"}, long...)
	for range blockChunk {
		strs = append(strs, mutateSub(rng, strings.Repeat("abcab", 12)[1:], 6))
	}
	ref, _, off, sig, err := sortRecs(strs, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := index.BuildFrozen(ref, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// lookups returns the lookups of the chunk of length L, stopped before
	// its group of length stop (-1: run whole), and the strings it counted.
	lookups := func(L, stop int) (int64, int64) {
		var st metrics.Stats
		p := newProber(1, selection.MultiMatch, VerifyExtensionShared, &st, nil, fz, ref, sig)
		j := newBlockJoin(p, off, true, taskBatchSize)
		p.emit = func(int32, int32) bool { return true }
		j.reach = func(l int) bool { return l != stop }
		j.probeBlock(ref[off[L]:off[L+1]], off[L])
		return st.Lookups, st.Strings
	}
	aLookups, aStrings := lookups(59, -1)
	b59, _ := lookups(60, 60)
	bAll, _ := lookups(60, -1)
	if aStrings != blockChunk || b59 == 0 || b59 >= bAll {
		t.Fatalf("corpus: A counts %d strings; B makes %d lookups in group 59 of %d", aStrings, b59, bAll)
	}
	for _, procs := range []int{1, 4} {
		helperHeld := false
		for try := 0; try < 50 && !helperHeld; try++ {
			ctx, cancel := context.WithCancel(context.Background())
			var st metrics.Stats
			var probers [maxWorkers]*prober
			before := runtime.NumGoroutine()
			withProcs(procs, func() {
				_, err = pipeOver(ref, off, sig, ctx, &st, func(p *prober, w int) { probers[w] = p }, func(l int) {
					if l == 61 {
						cancel()
					}
				})
			})
			cancel()
			waitGoroutines(t, before)
			if err != context.Canceled {
				t.Fatalf("GOMAXPROCS=%d: err = %v, want context.Canceled", procs, err)
			}
			if !(st.Strings == 0 && st.Lookups == 0 || st.Strings == aStrings && st.Lookups == aLookups) || procs == 1 && st.Strings == 0 {
				t.Fatalf("GOMAXPROCS=%d: counted %d strings and %d lookups; want A's %d and %d, or nothing", procs, st.Strings, st.Lookups, aStrings, aLookups)
			}
			for w, p := range probers {
				if p == nil || p.join.base != off[60] {
					continue
				}
				// p.st holds what w counted of the chunk it stopped in; nothing
				// if it finished B, its lookups through before A's were.
				stopped := p.st.Lookups > 0 || procs == 1
				if p.st.Strings != 0 || stopped && (p.st.Lookups < b59 || p.st.Lookups > bAll) || procs == 1 && p.st.Lookups != b59 {
					t.Fatalf("GOMAXPROCS=%d: worker %d stopped in B with %d strings and %d lookups; want none, and %d to %d", procs, w, p.st.Strings, p.st.Lookups, b59, bAll)
				}
				helperHeld = helperHeld || w > 0 && stopped
			}
		}
		if procs > 1 && !helperHeld {
			t.Fatalf("GOMAXPROCS=%d: the helper held B in none of 50 joins", procs)
		}
	}
}

// TestDenseEmitOrder: a join whose chunks each hold more matches than a
// serial join buffers (maxBuffered) delivers the sequence of the caller
// alone at GOMAXPROCS 2 and 4, where the helper must wait for the caller to
// emit before it claims another chunk. Each of the three chunks is a cluster
// of near-duplicates, every pair of them a match, and strings that match
// nothing, which sort after the cluster (they begin with the next letter).
func TestDenseEmitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const cluster = 725
	var strs []string
	for _, c := range "dmx" {
		for range cluster {
			b := []byte(strings.Repeat(string(c), 20))
			b[1+rng.Intn(len(b)-1)] = "abc"[rng.Intn(3)]
			strs = append(strs, string(b))
		}
		for range blockChunk - cluster {
			b := make([]byte, 20)
			b[0] = byte(c + 1)
			for i := 1; i < len(b); i++ {
				b[i] = byte('a' + rng.Intn(26))
			}
			strs = append(strs, string(b))
		}
	}
	const perChunk = cluster * (cluster - 1) / 2
	if perChunk <= maxBuffered {
		t.Fatalf("a chunk holds %d matches, no more than the %d a join buffers", perChunk, maxBuffered)
	}
	var want uint64
	for _, procs := range []int{1, 2, 4} {
		var h uint64 // of the sequence: a pair at a time, as FNV-1a takes a byte
		n := 0
		withProcs(procs, func() {
			if err := SelfJoinEach(context.Background(), strs, Options{Tau: 2}, func(p Pair) bool {
				h = (h ^ uint64(p.R)<<32 ^ uint64(uint32(p.S))) * 1099511628211
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		if n != 3*perChunk {
			t.Fatalf("GOMAXPROCS=%d: %d pairs, want %d", procs, n, 3*perChunk)
		}
		if procs == 1 {
			want = h
		} else if h != want {
			t.Fatalf("GOMAXPROCS=%d: sequence hash %#x, the caller alone's %#x", procs, h, want)
		}
	}
}

// TestCancelStopsLookupStage: a serial join's lookup stage notices a
// cancelled ctx at its next tick, not only once a batch of tasks fills or a
// chunk ends — in this join of random strings no candidate survives to
// fill one, so it would otherwise slide through every length — and the scan
// returns ctx.Err() with no goroutine left behind, at GOMAXPROCS 1 and 4:
// on the caller alone, and on the caller and a helper.
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
		ctx, cancel := context.WithCancel(context.Background())
		before := runtime.NumGoroutine()
		slides := 0
		withProcs(procs, func() {
			_, err = pipeOver(ref, off, sig, ctx, nil, func(*prober, int) {}, func(int) {
				if slides++; slides == 2 {
					cancel()
				}
			})
		})
		cancel()
		if err != context.Canceled || slides != 2 {
			t.Fatalf("GOMAXPROCS=%d: err = %v after %d slides; want context.Canceled after 2", procs, err, slides)
		}
		waitGoroutines(t, before)
	}
}
