package passjoin

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// dynWord builds a short word over a small alphabet so neighborhoods are
// dense.
func dynWord(rng *rand.Rand) string {
	n := 4 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return string(b)
}

// distDocs projects matches onto sorted "dist:doc" strings for
// id-agnostic comparison across index kinds.
func distDocs(ms []Match, doc func(int) string) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%d:%s", m.Dist, doc(m.ID))
	}
	sort.Strings(out)
	return out
}

func TestDynamicSearcherMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corpus := make([]string, 500)
	for i := range corpus {
		corpus[i] = dynWord(rng)
	}
	tau := 2
	ref, err := NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 8} {
		ds, err := NewDynamicSearcher(corpus, tau, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != len(corpus) || ds.NumShards() != shards || ds.Tau() != tau {
			t.Fatalf("shards=%d: Len=%d NumShards=%d", shards, ds.Len(), ds.NumShards())
		}
		for _, q := range corpus[:40] {
			want := ref.Search(q)
			got := ds.Search(q)
			// Seed ids equal corpus positions, so results must be
			// byte-identical, order included.
			wantM := make([]Match, len(want))
			copy(wantM, want)
			if !reflect.DeepEqual(got, wantM) {
				t.Fatalf("shards=%d q=%q: %v vs %v", shards, q, got, want)
			}
			if k := 3; !reflect.DeepEqual(ds.Search(q, QueryTopK(k)), ref.Search(q, QueryTopK(k))) {
				t.Fatalf("shards=%d q=%q: top-k diverges", shards, q)
			}
		}
		ds.Close()
	}
}

// TestDynamicSearcherChurnEquivalence interleaves inserts, deletes and
// compactions across shards and checks the answers always equal a fresh
// static Searcher over the surviving corpus.
func TestDynamicSearcherChurnEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tau := 2
	ds, err := NewDynamicSearcher(nil, tau, WithShards(3), WithCompactThreshold(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	live := map[int]string{}
	var ids []int
	for step := 0; step < 600; step++ {
		switch r := rng.Float64(); {
		case r < 0.6 || len(ids) == 0:
			doc := dynWord(rng)
			id, err := ds.Insert(doc)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := live[id]; dup {
				t.Fatalf("id %d handed out twice", id)
			}
			live[id] = doc
			ids = append(ids, id)
		case r < 0.85:
			id := ids[rng.Intn(len(ids))]
			_, wasLive := live[id]
			ok, err := ds.Delete(id)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wasLive {
				t.Fatalf("step %d: Delete(%d)=%v, wasLive=%v", step, id, ok, wasLive)
			}
			delete(live, id)
		default:
			if err := ds.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if step%53 != 0 {
			continue
		}
		var docs []string
		for _, d := range live {
			docs = append(docs, d)
		}
		sort.Strings(docs)
		ref, err := NewSearcher(docs, tau)
		if err != nil {
			t.Fatal(err)
		}
		q := dynWord(rng)
		want := distDocs(ref.Search(q), func(id int) string { return docs[id] })
		got := distDocs(ds.Search(q), func(id int) string {
			d, ok := ds.Get(id)
			if !ok {
				t.Fatalf("hit %d not gettable", id)
			}
			return d
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d q=%q: got %v want %v", step, q, got, want)
		}
		if ds.Len() != len(live) {
			t.Fatalf("Len=%d live=%d", ds.Len(), len(live))
		}
	}
	st := ds.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if st.Strings != int64(ds.Len()) {
		t.Fatalf("stats strings=%d len=%d", st.Strings, ds.Len())
	}
}

// TestDynamicSearcherDurableRestart drives a durable index through
// churn, reopens the directory (with and without a graceful Close), and
// expects the exact live corpus back — the kill-and-restart acceptance
// criterion at the public API level.
func TestDynamicSearcherDurableRestart(t *testing.T) {
	dir := t.TempDir()
	tau := 2
	rng := rand.New(rand.NewSource(11))
	ds, err := OpenDynamicSearcher(dir, nil, tau, WithShards(2), WithCompactThreshold(32))
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]string{}
	var ids []int
	for step := 0; step < 300; step++ {
		if r := rng.Float64(); r < 0.7 || len(ids) == 0 {
			doc := dynWord(rng)
			id, err := ds.Insert(doc)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = doc
			ids = append(ids, id)
		} else {
			id := ids[rng.Intn(len(ids))]
			if _, err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the corpus is ignored and the manifest does not pin the
	// build workers.
	re, err := OpenDynamicSearcher(dir, []string{"ignored"}, tau, WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if re.NumShards() != 5 || re.Len() != len(live) {
		t.Fatalf("recovered shards=%d len=%d want 5/%d", re.NumShards(), re.Len(), len(live))
	}
	for id, doc := range live {
		if got, ok := re.Get(id); !ok || got != doc {
			t.Fatalf("Get(%d) = %q,%v want %q", id, got, ok, doc)
		}
	}
	// New ids keep ascending after recovery — no reuse of deleted ids.
	newID, err := re.Insert("fresh-doc")
	if err != nil {
		t.Fatal(err)
	}
	if newID < len(ids) {
		t.Fatalf("recovered id allocator handed out stale id %d (max was %d)", newID, len(ids)-1)
	}
	// A second opener must be locked out while re is live (two writers
	// on one directory would interleave WALs and race snapshots); true
	// kill -9 recovery is covered at the tier level, where the kernel
	// has dropped the flock.
	if _, err := OpenDynamicSearcher(dir, nil, tau); err == nil {
		t.Fatal("concurrent open of a live directory accepted")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDynamicSearcher(dir, nil, tau)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re2.Get(newID); !ok || got != "fresh-doc" {
		t.Fatalf("second recovery Get(%d) = %q,%v", newID, got, ok)
	}
	if re2.Len() != len(live)+1 {
		t.Fatalf("second recovery Len=%d want %d", re2.Len(), len(live)+1)
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}

	// A tau mismatch fails loudly (and does not leave the lock held).
	if _, err := OpenDynamicSearcher(dir, nil, tau+1); err == nil {
		t.Fatal("tau mismatch accepted")
	}
	// The failed mismatch open released the directory lock.
	re3, err := OpenDynamicSearcher(dir, nil, tau)
	if err != nil {
		t.Fatalf("lock leaked by failed opens: %v", err)
	}
	re3.Close()
}

// TestDynamicSearcherConcurrent hammers a dynamic index from concurrent
// readers and writers while compactions run; meaningful under -race.
func TestDynamicSearcherConcurrent(t *testing.T) {
	ds, err := NewDynamicSearcher(nil, 1, WithShards(2), WithCompactThreshold(24))
	if err != nil {
		t.Fatal(err)
	}
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				id, err := ds.Insert(dynWord(rng))
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					ds.Delete(id - rng.Intn(8))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := dynWord(rng)
				for _, m := range ds.Search(q) {
					if m.Dist > 1 {
						t.Errorf("match %+v beyond threshold", m)
						return
					}
				}
				ds.Search(q, QueryTopK(5))
				ds.Len()
				ds.Stats()
			}
		}(r)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResultOrderDeterministic is the tie-break regression test: equal
// distances must order by id on every search path (plain, sharded,
// top-k, dynamic), independent of shard count and base/delta placement.
func TestResultOrderDeterministic(t *testing.T) {
	// Many strings at the same distances from the query.
	corpus := []string{
		"aaaa", "aaab", "aaba", "abaa", "baaa", // dist 1 from aaaa
		"aabb", "abab", "bbaa", // dist 2
		"aaaa", // duplicate at dist 0
	}
	q := "aaaa"
	tau := 2
	ref, err := NewSearcher(corpus, tau)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Search(q)
	for i := 1; i < len(want); i++ {
		prev, cur := want[i-1], want[i]
		if cur.Dist < prev.Dist || (cur.Dist == prev.Dist && cur.ID <= prev.ID) {
			t.Fatalf("reference order not (dist, id)-sorted: %v", want)
		}
	}
	for _, shards := range []int{1, 2, 3, 5, 9} {
		ss, err := NewSearcher(corpus, tau, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := ss.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: %v want %v", shards, got, want)
		}
		for k := 1; k <= len(want); k++ {
			if got := ss.Search(q, QueryTopK(k)); !reflect.DeepEqual(got, want[:k]) {
				t.Fatalf("shards=%d k=%d: %v want %v", shards, k, got, want[:k])
			}
		}
		ds, err := NewDynamicSearcher(corpus, tau, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := ds.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("dynamic shards=%d: %v want %v", shards, got, want)
		}
		for k := 1; k <= len(want); k++ {
			if got := ds.Search(q, QueryTopK(k)); !reflect.DeepEqual(got, want[:k]) {
				t.Fatalf("dynamic shards=%d k=%d: %v want %v", shards, k, got, want[:k])
			}
		}
		ds.Close()
	}
	// The same strings spread across base and delta tiers keep the order:
	// seed half, insert the rest dynamically (ids stay corpus positions).
	ds, err := NewDynamicSearcher(corpus[:4], tau, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, s := range corpus[4:] {
		if _, err := ds.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := ds.Search(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("base/delta split changed order: %v want %v", got, want)
	}
}

// TestOpenDynamicSearcherPartialSeedDetected models a crash mid-seeding:
// shard files exist but the manifest (written last) does not. Reopening
// must fail loudly instead of serving or silently re-seeding a partial
// corpus.
func TestOpenDynamicSearcherPartialSeedDetected(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDynamicSearcher(dir, []string{"alpha", "beta", "gamma"}, 1, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	// Simulate the crash window by removing the manifest only.
	if err := os.Remove(filepath.Join(dir, "meta.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDynamicSearcher(dir, []string{"alpha", "beta", "gamma"}, 1, WithShards(2)); err == nil {
		t.Fatal("partially initialized directory accepted")
	}
}

// TestDynamicSearcherWALSync smoke-tests the per-append fsync option end
// to end: mutations survive a reopen.
func TestDynamicSearcherWALSync(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDynamicSearcher(dir, []string{"alpha"}, 1, WithShards(1), WithWALSync())
	if err != nil {
		t.Fatal(err)
	}
	id, err := ds.Insert("alphb")
	if err != nil {
		t.Fatal(err)
	}
	// The fsynced record is on disk before Close ever runs.
	blob, err := os.ReadFile(filepath.Join(dir, "shard-0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("WAL empty despite fsync")
	}
	ds.Close()
	re, err := OpenDynamicSearcher(dir, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if doc, ok := re.Get(id); !ok || doc != "alphb" {
		t.Fatalf("synced insert not recovered: %q %v", doc, ok)
	}
}
