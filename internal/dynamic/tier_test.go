package dynamic

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"passjoin/internal/core"
)

// randWord builds a short word over a small alphabet so edit-distance
// neighborhoods are dense.
func randWord(rng *rand.Rand) string {
	n := 4 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return string(b)
}

// refSearch answers q against docs with a fresh mutable matcher — the
// ground truth a dynamic tier must match after any update history, over the
// map index, which shares no code with the bulk build of a tier's base.
func refSearch(t *testing.T, tau int, docs []string, q string) []Hit {
	t.Helper()
	m, err := core.NewMatcher(tau, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		m.InsertSilent(d)
	}
	var out []Hit
	for _, h := range m.Query(q) {
		out = append(out, Hit{ID: int64(h.ID), Dist: int(h.Dist)})
	}
	return out
}

// search is SearchOpt at the tier's threshold, ranked by distance, then id.
func search(tier *Tier, q string) []Hit {
	hits := tier.SearchOpt(q, core.QueryOpts{Tau: tier.cfg.Tau})
	slices.SortFunc(hits, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return hits
}

// asDistDoc projects hits onto (dist, doc) pairs for id-agnostic
// comparison, sorted.
func asDistDoc(hits []Hit, doc func(int64) string) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%d:%s", h.Dist, doc(h.ID))
	}
	sort.Strings(out)
	return out
}

func TestTierBasic(t *testing.T) {
	tier, err := Open(Config{Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	docs := []string{"vldb", "pvldb", "sigmod", "vldbj"}
	for i, d := range docs {
		if gid, err := tier.Insert(d); err != nil || gid != int64(i) {
			t.Fatalf("Insert(%q) = %d, %v; want id %d", d, gid, err, i)
		}
	}
	if tier.Len() != 4 {
		t.Fatalf("Len=%d", tier.Len())
	}
	hits := search(tier, "vldb")
	if len(hits) != 3 || hits[0].ID != 0 || hits[0].Dist != 0 {
		t.Fatalf("search: %+v", hits)
	}
	// Ties (pvldb and vldbj are both at distance 1) break by id.
	if hits[1].ID != 1 || hits[2].ID != 3 {
		t.Fatalf("tie order: %+v", hits)
	}
	if ok, _ := tier.Delete(1); !ok {
		t.Fatal("delete reported absent")
	}
	if ok, _ := tier.Delete(1); ok {
		t.Fatal("double delete reported live")
	}
	if hits := search(tier, "vldb"); len(hits) != 2 {
		t.Fatalf("post-delete search: %+v", hits)
	}
	if _, ok := tier.Get(1); ok {
		t.Fatal("Get sees deleted doc")
	}
	if doc, ok := tier.Get(2); !ok || doc != "sigmod" {
		t.Fatalf("Get(2) = %q, %v", doc, ok)
	}
	if ok, err := tier.Apply(Op{ID: 0, Doc: "dup"}); ok || err != nil {
		t.Fatalf("Apply of a known id = %v, %v; want a no-op", ok, err)
	}
	if ok, _ := tier.Delete(99); ok {
		t.Fatal("unknown id deleted")
	}
}

func TestTierCompactFoldsTombstones(t *testing.T) {
	tier, err := Open(Config{Tau: 1, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	for i := 0; i < 50; i++ {
		tier.Insert(fmt.Sprintf("doc%02d", i))
	}
	for i := 0; i < 50; i += 3 {
		tier.Delete(int64(i))
	}
	before := search(tier, "doc07")
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	st := shapeOf(tier)
	if st.Tombstones != 0 || st.DeltaDocs != 0 || st.BaseDocs != 33 || st.Live != 33 {
		t.Fatalf("post-compact stats: %+v", st)
	}
	if got := search(tier, "doc07"); !reflect.DeepEqual(got, before) {
		t.Fatalf("compaction changed results: %+v vs %+v", got, before)
	}
	// The tier stays writable after compaction and ids never recycle.
	if gid, err := tier.Insert("doc07x"); err != nil || gid != 50 {
		t.Fatalf("post-compact Insert = %d, %v; want id 50", gid, err)
	}
	if got := search(tier, "doc07"); len(got) != len(before)+1 {
		t.Fatalf("post-compact insert invisible: %+v", got)
	}
}

// TestTierEquivalenceProperty is the core acceptance property: after any
// interleaving of inserts, deletes, and compactions, the tier answers
// exactly like a fresh index over the surviving corpus.
func TestTierEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tau := 1 + int(seed%3)
		tier, err := Open(Config{Tau: tau, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		live := map[int64]string{}
		next := int64(0)
		var ids []int64
		for step := 0; step < 400; step++ {
			switch r := rng.Float64(); {
			case r < 0.55 || len(ids) == 0:
				doc := randWord(rng)
				if gid, err := tier.Insert(doc); err != nil || gid != next {
					t.Fatalf("Insert = %d, %v; want id %d", gid, err, next)
				}
				live[next] = doc
				ids = append(ids, next)
				next++
			case r < 0.8:
				gid := ids[rng.Intn(len(ids))]
				_, wasLive := live[gid]
				ok, err := tier.Delete(gid)
				if err != nil {
					t.Fatal(err)
				}
				if ok != wasLive {
					t.Fatalf("seed %d step %d: Delete(%d)=%v, live=%v", seed, step, gid, ok, wasLive)
				}
				delete(live, gid)
			default:
				if err := tier.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if step%37 != 0 {
				continue
			}
			q := randWord(rng)
			var docs []string
			for _, d := range live {
				docs = append(docs, d)
			}
			sort.Strings(docs)
			want := asDistDoc(refSearch(t, tau, docs, q), func(id int64) string { return docs[id] })
			got := asDistDoc(search(tier, q), func(id int64) string {
				d, ok := tier.Get(id)
				if !ok {
					t.Fatalf("hit %d not gettable", id)
				}
				return d
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d q=%q: got %v want %v", seed, step, q, got, want)
			}
			if tier.Len() != len(live) {
				t.Fatalf("seed %d: Len=%d live=%d", seed, tier.Len(), len(live))
			}
		}
		tier.Close()
	}
}

// runOps drives a deterministic op sequence against a durable tier.
type opTrace struct {
	live map[int64]string
	next int64
}

func driveOps(t *testing.T, tier *Tier, rng *rand.Rand, steps int, tr *opTrace) {
	t.Helper()
	var ids []int64
	for id := range tr.live {
		ids = append(ids, id)
	}
	for step := 0; step < steps; step++ {
		switch r := rng.Float64(); {
		case r < 0.6 || len(ids) == 0:
			doc := randWord(rng)
			if gid, err := tier.Insert(doc); err != nil || gid != tr.next {
				t.Fatalf("Insert = %d, %v; want id %d", gid, err, tr.next)
			}
			tr.live[tr.next] = doc
			ids = append(ids, tr.next)
			tr.next++
		case r < 0.85:
			gid := ids[rng.Intn(len(ids))]
			if _, err := tier.Delete(gid); err != nil {
				t.Fatal(err)
			}
			delete(tr.live, gid)
		default:
			if err := tier.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func checkRecovered(t *testing.T, tier *Tier, tr *opTrace, tau int, rng *rand.Rand) {
	t.Helper()
	if tier.Len() != len(tr.live) {
		t.Fatalf("recovered Len=%d, want %d", tier.Len(), len(tr.live))
	}
	for gid, doc := range tr.live {
		got, ok := tier.Get(gid)
		if !ok || got != doc {
			t.Fatalf("recovered Get(%d) = %q,%v want %q", gid, got, ok, doc)
		}
	}
	var docs []string
	for _, d := range tr.live {
		docs = append(docs, d)
	}
	sort.Strings(docs)
	for i := 0; i < 20; i++ {
		q := randWord(rng)
		want := asDistDoc(refSearch(t, tau, docs, q), func(id int64) string { return docs[id] })
		got := asDistDoc(search(tier, q), func(id int64) string { d, _ := tier.Get(id); return d })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered q=%q: got %v want %v", q, got, want)
		}
	}
}

// TestTierRestartRecoversSnapshotPlusWAL is the durability property:
// snapshot + replayed WAL tail equals an index rebuilt from the final
// corpus — with a graceful close and with a simulated crash (no Close,
// plus a torn trailing record).
func TestTierRestartRecoversSnapshotPlusWAL(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		dir := t.TempDir()
		cfg := Config{
			Tau:              2,
			CompactThreshold: -1,
			WALPath:          filepath.Join(dir, "t.wal"),
			SnapPath:         filepath.Join(dir, "t.snap"),
		}
		rng := rand.New(rand.NewSource(100 + seed))
		tier, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := &opTrace{live: map[int64]string{}}
		driveOps(t, tier, rng, 300, tr)
		graceful := seed%2 == 0
		if graceful {
			if err := tier.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			// Crash: leave the tier unclosed and tear the WAL tail by
			// appending half a record.
			f, err := os.OpenFile(cfg.WALPath, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x09, 0x00, 0x00})
			f.Close()
		}
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("seed %d reopen: %v", seed, err)
		}
		checkRecovered(t, re, tr, cfg.Tau, rng)
		// The recovered tier keeps working: more ops, another reopen.
		driveOps(t, re, rng, 100, tr)
		if err := re.Compact(); err != nil {
			t.Fatal(err)
		}
		re.Close()
		re2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, re2, tr, cfg.Tau, rng)
		if re2.MaxID() != tr.next-1 {
			t.Fatalf("recovered MaxID=%d want %d", re2.MaxID(), tr.next-1)
		}
		re2.Close()
	}
}

// TestTierReplayIdempotent models the crash window between the snapshot
// rename and the WAL rewrite: the snapshot already contains operations
// still present in the (old) WAL, and replay must not double-apply them.
func TestTierReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tau:              1,
		CompactThreshold: -1,
		WALPath:          filepath.Join(dir, "t.wal"),
		SnapPath:         filepath.Join(dir, "t.snap"),
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{"alpha", "alphb", "beta", "betb"}
	for _, d := range docs {
		tier.Insert(d)
	}
	tier.Delete(2)
	// Save the pre-compaction WAL (it holds every op), compact (which
	// writes the snapshot and rewrites the WAL), then restore the stale
	// WAL over the rewritten one.
	stale, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	if err := os.WriteFile(cfg.WALPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("Len=%d after stale-WAL replay", re.Len())
	}
	if _, ok := re.Get(2); ok {
		t.Fatal("tombstoned doc resurrected by stale WAL")
	}
	if hits := search(re, "alpha"); len(hits) != 2 {
		t.Fatalf("search after stale replay: %+v", hits)
	}
}

// TestTierBootstrapDurable checks the seeded cold start: Bootstrap builds
// the frozen base directly, persists it, and a reopen recovers it without
// any WAL records.
func TestTierBootstrapDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tau:      1,
		WALPath:  filepath.Join(dir, "t.wal"),
		SnapPath: filepath.Join(dir, "t.snap"),
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Bootstrap([]int64{0, 2, 4}, []string{"vldb", "icde", "vldbj"}); err != nil {
		t.Fatal(err)
	}
	if err := tier.Bootstrap([]int64{9}, []string{"late"}); err == nil {
		t.Fatal("second Bootstrap accepted")
	}
	st := shapeOf(tier)
	if st.BaseDocs != 3 || st.WALRecords != 0 || st.FrozenBytes == 0 {
		t.Fatalf("bootstrap stats: %+v", st)
	}
	tier.Close()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 || re.MaxID() != 4 {
		t.Fatalf("recovered Len=%d MaxID=%d", re.Len(), re.MaxID())
	}
	if hits := search(re, "vldb"); len(hits) != 2 || hits[0].ID != 0 || hits[1].ID != 4 {
		t.Fatalf("recovered search: %+v", hits)
	}
}

// TestTierCorruptSnapshotRejected flips bytes in the base snapshot and
// expects Open to fail loudly rather than serve bad data.
func TestTierCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tau:              1,
		CompactThreshold: -1,
		WALPath:          filepath.Join(dir, "t.wal"),
		SnapPath:         filepath.Join(dir, "t.snap"),
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tier.Insert(fmt.Sprintf("record%02d", i))
	}
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	blob, err := os.ReadFile(cfg.SnapPath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 5; off < len(blob); off += 1 + len(blob)/31 {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		os.WriteFile(cfg.SnapPath, bad, 0o644)
		if _, err := Open(cfg); err == nil {
			t.Fatalf("corrupted snapshot byte %d accepted", off)
		}
	}
	// A nextID hint beyond the id range is an error of its own, with no nil
	// error wrapped into its text.
	hint := binary.AppendUvarint(append([]byte(snapMagic), snapVersion), 1<<63)
	os.WriteFile(cfg.SnapPath, hint, 0o644)
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "out of range") || strings.Contains(err.Error(), "%!w") {
		t.Fatalf("out-of-range nextID hint: %v", err)
	}
	// Tau mismatch is its own loud error.
	os.WriteFile(cfg.SnapPath, blob, 0o644)
	bad := cfg
	bad.Tau = 3
	if _, err := Open(bad); err == nil {
		t.Fatal("tau mismatch accepted")
	}
}

// TestTierConcurrentChurn races queries, inserts, deletes, and the
// background compactor; under -race this demonstrates the lock-free base
// swap. Auto-compaction is enabled with a tiny threshold so several
// compactions happen mid-flight.
func TestTierConcurrentChurn(t *testing.T) {
	tier, err := Open(Config{Tau: 1, CompactThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 2
	const readers = 4
	const perWriter = 300
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				gid, err := tier.Insert(randWord(rng))
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					tier.Delete(gid - int64(rng.Intn(10)))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randWord(rng)
				for _, h := range search(tier, q) {
					if h.Dist > 1 {
						t.Errorf("hit %+v beyond threshold", h)
						return
					}
				}
				tier.Get(int64(rng.Intn(perWriter * writers)))
				tier.Len()
				tier.Stats()
			}
		}(r)
	}
	// One explicit compactor thread on top of the automatic one.
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		for i := 0; i < 10; i++ {
			if err := tier.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ever ran")
	}
}

// liveSearch answers q by brute force over the documents tier.Live
// reports, ranked as search ranks.
func liveSearch(tier *Tier, q string) []Hit {
	gids, docs := tier.Live()
	live := make(map[int64]string, len(gids))
	for i, id := range gids {
		live[id] = docs[i]
	}
	return bruteSearch(live, tier.cfg.Tau, q)
}

// TestTierDirtySearch: a dirty tier's delta is searched in place, on probers
// its matcher pools and rebinds to the delta's current rows at each query.
// One goroutine searches between every step of a delta's life — grown,
// documents deleted, compacted, a new delta inserted into — and four search
// one dirty tier at once; every search must equal brute force over Live.
func TestTierDirtySearch(t *testing.T) {
	const tau = 2
	rng := rand.New(rand.NewSource(44))
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = randWord(rng)
	}
	// insert adds n documents, half of them one edit from a query, so a
	// grown delta holds hits a prober bound to its old rows would miss.
	insert := func(tier *Tier, n int) []int64 {
		gids := make([]int64, n)
		for i := range gids {
			doc := randWord(rng)
			if i%2 == 0 {
				q := queries[rng.Intn(len(queries))]
				doc = q[:len(q)-1] + string(rune('a'+rng.Intn(4)))
			}
			gid, err := tier.Insert(doc)
			if err != nil {
				t.Fatal(err)
			}
			gids[i] = gid
		}
		return gids
	}
	check := func(tier *Tier, step string) {
		t.Helper()
		hits := 0
		for _, q := range queries {
			got, want := search(tier, q), liveSearch(tier, q)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: search %q = %v, want %v", step, q, got, want)
			}
			hits += len(got)
		}
		if hits == 0 {
			t.Fatalf("%s: no query has a match", step)
		}
	}
	dirty := func() *Tier {
		tier, err := Open(Config{Tau: tau, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		insert(tier, 300)
		if err := tier.Compact(); err != nil {
			t.Fatal(err)
		}
		insert(tier, 60)
		return tier
	}

	t.Run("lifecycle", func(t *testing.T) {
		tier := dirty()
		defer tier.Close()
		check(tier, "dirty")
		gids := insert(tier, 80)
		check(tier, "grown delta")
		for _, gid := range append(gids[:20:20], 3, 100, 250) {
			if _, err := tier.Delete(gid); err != nil {
				t.Fatal(err)
			}
		}
		check(tier, "deleted")
		if err := tier.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := shapeOf(tier); st.DeltaDocs != 0 || st.Tombstones != 0 {
			t.Fatalf("after Compact: %+v, want an empty delta and no tombstones", st)
		}
		check(tier, "compacted")
		insert(tier, 40)
		check(tier, "new delta")
		insert(tier, 40)
		check(tier, "new delta grown")
	})

	t.Run("concurrent", func(t *testing.T) {
		tier := dirty()
		defer tier.Close()
		want := make([][]Hit, len(queries))
		for i, q := range queries {
			want[i] = liveSearch(tier, q)
		}
		var wg sync.WaitGroup
		for r := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range 5 * len(queries) {
					i := (k + r*7) % len(queries)
					if got := search(tier, queries[i]); !slices.Equal(got, want[i]) {
						t.Errorf("reader %d: search %q = %v, want %v", r, queries[i], got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestCompactWALCarriesWatermark: the rewritten WAL's first record pins
// the id allocator, so even an id whose document was inserted and
// deleted within one compaction cycle (leaving no add record and no
// snapshot row) is never re-issued after a restart.
func TestCompactWALCarriesWatermark(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tau:              1,
		CompactThreshold: -1,
		WALPath:          filepath.Join(dir, "t.wal"),
		SnapPath:         filepath.Join(dir, "t.snap"),
	}
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Insert("alpha")
	// gid 7 lives and dies entirely before the compaction finishes: no
	// add record survives the rewrite, no snapshot row exists.
	tier.Apply(Op{ID: 7, Doc: "ghost"})
	tier.Delete(7)
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	ops, _, rerr := ReplayWAL(f)
	f.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ops) == 0 || !ops[0].Watermark || ops[0].ID != 7 {
		t.Fatalf("rewritten WAL does not lead with watermark 7: %+v", ops)
	}
	tier.Close()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.MaxID() != 7 {
		t.Fatalf("recovered MaxID=%d, want 7 (ghost id must not be re-issuable)", re.MaxID())
	}
}
