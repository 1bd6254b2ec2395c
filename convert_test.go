package passjoin

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"passjoin/internal/dynamic"
)

// dirState is what a durable dynamic directory must reopen to.
type dirState struct {
	docs   map[int]string
	nextID int
}

// readFiles returns every file of dir by name.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeFiles writes files into a fresh directory and returns it.
func writeFiles(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// openChecked opens dir and holds it to want: the same documents, answers
// equal to brute force, the same next id, a mutation hook that observed
// nothing, and the one-shard layout on disk — a manifest saying one shard
// and no shard-k file past shard 0. It returns the searcher and the number
// of near-duplicate hits the queries found.
func openChecked(t *testing.T, dir, step string, tau int, want dirState, opts ...Option) (*DynamicSearcher, int) {
	t.Helper()
	fired := 0
	opts = append(opts, WithMutationHook(func(Mutation) { fired++ }))
	ds, err := OpenDynamicSearcher(dir, nil, tau, opts...)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := maps.Collect(ds.All()); ds.NextID() != want.nextID || !maps.Equal(got, want.docs) {
		t.Fatalf("%s: next id %d, %d documents; want next id %d, %d documents", step, ds.NextID(), len(got), want.nextID, len(want.docs))
	}
	hits := 0
	for _, q := range want.docs {
		brute := bruteSearch(maps.All(want.docs), q, tau)
		if got := ds.Search(q); !reflect.DeepEqual(got, brute) {
			t.Fatalf("%s q=%q: %v, brute force %v", step, q, got, brute)
		}
		hits += len(brute) - 1
	}
	if fired != 0 {
		t.Fatalf("%s: the mutation hook observed %d mutations", step, fired)
	}
	var meta dynamicMeta
	raw, err := os.ReadFile(filepath.Join(dir, dynamicMetaName))
	if err == nil {
		err = json.Unmarshal(raw, &meta)
	}
	if err != nil || meta.Shards != 1 || meta.Tau != tau {
		t.Fatalf("%s: manifest %s (%v), want one shard at tau %d", step, raw, err, tau)
	}
	if stray, _ := filepath.Glob(filepath.Join(dir, "shard-[1-9]*")); len(stray) > 0 {
		t.Fatalf("%s: %v left behind", step, stray)
	}
	return ds, hits
}

// checkConversion converts a copy of the directory before, then rebuilds on
// disk every state a crash can leave the conversion in — after the Compact,
// after the manifest rewrite, and after each removal — from the files before
// and after it, and requires each to reopen to want, at varying workers.
func checkConversion(t *testing.T, before string, tau int, want dirState) {
	t.Helper()
	old := readFiles(t, before)
	dir := writeFiles(t, old)
	ds, _ := openChecked(t, dir, "converted", tau, want)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	converted := readFiles(t, dir)

	state := maps.Clone(old)
	for _, name := range []string{"shard-0.snap", "shard-0.wal"} {
		state[name] = converted[name]
	}
	states := map[string]map[string][]byte{"after the Compact": maps.Clone(state)}
	state[dynamicMetaName] = converted[dynamicMetaName]
	states["after the manifest rewrite"] = maps.Clone(state)
	var stray []string
	for name := range old {
		if ok, _ := filepath.Match("shard-[1-9]*", name); ok {
			stray = append(stray, name)
		}
	}
	if len(stray) < 2 {
		t.Fatalf("%s holds no shards to convert", before)
	}
	slices.Sort(stray)
	for _, name := range stray {
		delete(state, name)
		states["after removing "+name] = maps.Clone(state)
	}
	i := 0
	for step, files := range states {
		i++
		ds, _ := openChecked(t, writeFiles(t, files), step, tau, want, WithShards(1+i%4))
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// parentWAL is testdata/parent-wal, a -wal directory written by the last
// commit whose snapshots held an index: passjoind -tau 2 -shards 2
// -compact-threshold 6 over 60 author names, then 19 adds and 5 deletes over
// HTTP and a kill -9; never regenerated. Each shard's base snapshot embeds a
// frozen section behind its corpus, and each WAL holds the watermark of that
// shard's compaction, then adds and deletes. expected.ndjson is what that
// process answered to GET /v1/docs/{id}, over every id, just before it was
// killed.
func parentWAL(t *testing.T) (string, dirState) {
	const fixture = "testdata/parent-wal"
	raw, err := os.ReadFile(filepath.Join(fixture, "expected.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	want := dirState{docs: map[int]string{}, nextID: 79}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var d struct {
			ID  int    `json:"id"`
			Doc string `json:"doc"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("expected.ndjson: %q: %v", line, err)
		}
		want.docs[d.ID] = d.Doc
	}
	if len(want.docs) != 74 {
		t.Fatalf("expected.ndjson lists %d documents, want 74", len(want.docs))
	}
	return fixture, want
}

// TestParentWALDirectory: a copy of testdata/parent-wal must open to
// exactly the parent's documents, answer like brute force over them and
// continue the id sequence; the open converts its two shards to one, whose
// base snapshot — a corpus now — is smaller than the parent's two.
func TestParentWALDirectory(t *testing.T) {
	fixture, want := parentWAL(t)
	dir := writeFiles(t, readFiles(t, fixture))
	size := func(names ...string) (n int64) {
		for _, name := range names {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	parentBytes := size("shard-0.snap", "shard-1.snap")
	ds, hits := openChecked(t, dir, "as the parent left it", 2, want)
	if hits < 6 {
		t.Fatalf("%d near-duplicate hits — the fixture does not exercise the index", hits)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if now := size("shard-0.snap"); now >= parentBytes {
		t.Fatalf("the base snapshot takes %d bytes after conversion, the parent's two took %d: a frozen section is still written, or the fixture never held one", now, parentBytes)
	}
	ds, _ = openChecked(t, dir, "after conversion", 2, want)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeShardedDir lays out a 3-shard directory the way builds before the
// one-tier index did — document g in shard g mod 3 — with base rows, WAL
// adds and WAL deletes in every shard. Its highest id was inserted and then
// deleted in shard 2 and compacted away: only that shard's snapshot hint and
// watermark still carry it.
func writeShardedDir(t *testing.T, tau int) (string, dirState) {
	const shards, n = 3, 60
	dir := t.TempDir()
	tiers := make([]*dynamic.Tier, shards)
	for k := range tiers {
		snap, wal := shardPaths(dir, k)
		tier, err := dynamic.Open(dynamic.Config{Tau: tau, CompactThreshold: -1, SnapPath: snap, WALPath: wal})
		if err != nil {
			t.Fatal(err)
		}
		tiers[k] = tier
	}
	shard := func(g int) *dynamic.Tier { return tiers[g%shards] }
	rng := rand.New(rand.NewSource(25))
	want := dirState{docs: map[int]string{}, nextID: n}
	for g := 0; g < n; g++ {
		doc := dynWord(rng)
		if _, err := shard(g).Apply(dynamic.Op{ID: int64(g), Doc: doc}); err != nil {
			t.Fatal(err)
		}
		want.docs[g] = doc
		if g == n/2 {
			for _, tier := range tiers {
				if err := tier.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for g := 0; g < n; g += 7 {
		if ok, err := shard(g).Delete(int64(g)); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", g, ok, err)
		}
		delete(want.docs, g)
	}
	if ok, err := shard(n - 1).Delete(n - 1); !ok || err != nil || (n-1)%shards != 2 {
		t.Fatalf("Delete(%d) = %v, %v", n-1, ok, err)
	}
	delete(want.docs, n-1)
	if err := shard(n - 1).Compact(); err != nil {
		t.Fatal(err)
	}
	for _, tier := range tiers {
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
	}
	meta := fmt.Sprintf(`{"version":1,"tau":%d,"shards":%d}`, tau, shards)
	if err := os.WriteFile(filepath.Join(dir, dynamicMetaName), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// TestConversionCrashPoints: a conversion cut short at any step reopens to
// the same documents, answers and next id, and finishes the conversion.
func TestConversionCrashPoints(t *testing.T) {
	t.Run("parent-wal", func(t *testing.T) {
		fixture, want := parentWAL(t)
		checkConversion(t, fixture, 2, want)
	})
	t.Run("three-shards", func(t *testing.T) {
		dir, want := writeShardedDir(t, 2)
		checkConversion(t, dir, 2, want)
	})
}

// TestReopenAtOtherWorkers: the manifest no longer pins WithShards, so a
// directory created at one worker count reopens at another.
func TestReopenAtOtherWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := make([]string, 80)
	for i := range corpus {
		corpus[i] = dynWord(rng)
	}
	for _, workers := range [][2]int{{1, 4}, {4, 1}} {
		dir := t.TempDir()
		ds, err := OpenDynamicSearcher(dir, corpus, 2, WithShards(workers[0]))
		if err != nil {
			t.Fatal(err)
		}
		want := dirState{docs: map[int]string{}}
		for id, doc := range corpus {
			want.docs[id] = doc
		}
		for i := 0; i < 20; i++ {
			doc := dynWord(rng)
			id, err := ds.Insert(doc)
			if err != nil {
				t.Fatal(err)
			}
			want.docs[id] = doc
			if _, err := ds.Delete(3 * i); err != nil {
				t.Fatal(err)
			}
			delete(want.docs, 3*i)
		}
		want.nextID = ds.NextID()
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		step := fmt.Sprintf("created at %d workers, reopened at %d", workers[0], workers[1])
		ds, _ = openChecked(t, dir, step, 2, want, WithShards(workers[1]))
		if ds.NumShards() != workers[1] {
			t.Fatalf("%s: NumShards %d", step, ds.NumShards())
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeletesAloneCompact: tombstones of base documents count toward the
// compaction threshold, so a stream of deletes alone folds the dead
// documents out of the base.
func TestDeletesAloneCompact(t *testing.T) {
	corpus := make([]string, 40)
	for i := range corpus {
		corpus[i] = fmt.Sprintf("doc-%02d", i)
	}
	ds, err := NewDynamicSearcher(corpus, 1, WithCompactThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for id := 0; id < 8; id++ {
		if ok, err := ds.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ds.Stats().Compactions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("eight deletes at threshold 8 never compacted: %+v", ds.Stats())
		}
	}
	if st := ds.Stats(); st.Tombstones != 0 || st.Strings != 32 || st.DeltaDocs != 0 {
		t.Fatalf("after the compaction: %+v", st)
	}
}
