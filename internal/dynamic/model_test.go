package dynamic

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"passjoin/internal/metrics"
	"passjoin/internal/verify"
)

// durableConfig is a tier configuration over fresh files in dir, with
// automatic compaction off.
func durableConfig(dir string, tau int) Config {
	return Config{
		Tau:              tau,
		CompactThreshold: -1,
		WALPath:          filepath.Join(dir, "t.wal"),
		SnapPath:         filepath.Join(dir, "t.snap"),
	}
}

// bruteSearch answers q over live by verifying every document, ranked as
// search ranks.
func bruteSearch(live map[int64]string, tau int, q string) []Hit {
	var v verify.Verifier
	var out []Hit
	for id, doc := range live {
		if d := v.Dist(q, doc, tau); d <= tau {
			out = append(out, Hit{ID: id, Dist: d})
		}
	}
	slices.SortFunc(out, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// checkModel holds tier to the map model live: Len, Get of every id in
// seen, Live, Stats' live count, and a brute-force search per query.
// tierShape is Tier.Stats in the row accounting the tests assert: live
// documents, base rows, delta rows and tombstones. The base rows are
// live + tombstones - delta rows, the identity Tier.Stats is built on.
type tierShape struct {
	metrics.Stats
	Live, BaseDocs, DeltaDocs, Tombstones int
}

func shapeOf(tier *Tier) tierShape {
	st := tier.Stats()
	return tierShape{
		Stats:      st,
		Live:       int(st.Strings),
		BaseDocs:   int(st.Strings + st.Tombstones - st.DeltaDocs),
		DeltaDocs:  int(st.DeltaDocs),
		Tombstones: int(st.Tombstones),
	}
}

func checkModel(t *testing.T, tier *Tier, live map[int64]string, seen []int64, queries ...string) {
	t.Helper()
	if n := tier.Len(); n != len(live) {
		t.Fatalf("Len = %d, want %d", n, len(live))
	}
	for _, id := range seen {
		want, wantOK := live[id]
		if doc, ok := tier.Get(id); doc != want || ok != wantOK {
			t.Fatalf("Get(%d) = %q, %v; want %q, %v", id, doc, ok, want, wantOK)
		}
	}
	gids, docs := tier.Live()
	got := make(map[int64]string, len(gids))
	for i, id := range gids {
		got[id] = docs[i]
	}
	if len(got) != len(gids) || !maps.Equal(got, live) {
		t.Fatalf("Live = %v, want %v", got, live)
	}
	if st := shapeOf(tier); st.Live != len(live) || st.BaseDocs+st.DeltaDocs-st.Tombstones != len(live) {
		t.Fatalf("Stats %+v disagree with %d live documents", st, len(live))
	}
	for _, q := range queries {
		if got, want := search(tier, q), bruteSearch(live, tier.cfg.Tau, q); !slices.Equal(got, want) {
			t.Fatalf("search %q = %v, want %v", q, got, want)
		}
	}
}

// walOps reads the WAL at path as it is on disk.
func walOps(t *testing.T, path string) []Op {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ops, _, err := ReplayWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestTierIDBound pins the id space at its edge: 2^62-1 is accepted and
// survives reopen and compaction; 2^62 and beyond are refused with
// strconv.ErrRange, as is an Insert once the edge is taken, and neither
// reaches the WAL.
func TestTierIDBound(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 1)
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]string{0: "alpha", maxDocID: "edge"}
	seen := []int64{0, maxDocID}
	if _, err := tier.Insert("alpha"); err != nil {
		t.Fatal(err)
	}
	if ok, err := tier.Apply(Op{ID: maxDocID, Doc: "edge"}); !ok || err != nil {
		t.Fatalf("Apply at the edge = %v, %v", ok, err)
	}
	records := tier.Stats().WALRecords
	for _, id := range []int64{maxDocID + 1, 1<<62 + 5, -1} {
		if _, err := tier.Apply(Op{ID: id, Doc: "over"}); !errors.Is(err, strconv.ErrRange) {
			t.Fatalf("Apply(%d): err = %v, want strconv.ErrRange", id, err)
		}
	}
	if _, err := tier.Insert("beyond"); err == nil {
		t.Fatal("Insert past the id space accepted")
	}
	if got := tier.Stats().WALRecords; got != records {
		t.Fatalf("refused writes reached the WAL: %d records, want %d", got, records)
	}
	for round := 0; round < 2; round++ {
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if tier, err = Open(cfg); err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		checkModel(t, tier, live, seen, "edge", "alpha")
		if got := tier.MaxID(); got != maxDocID {
			t.Fatalf("round %d: MaxID = %d, want %d", round, got, int64(maxDocID))
		}
		if err := tier.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	tier.Close()
}

// TestCompactRacedMutations pins what the swap does with writes that land
// between a compaction's cut and its swap: deletes of a base row and of a
// cut-delta row stay tombstones on the new base, a tail insert moves to the
// new delta, and a tail document inserted and deleted in the window
// vanishes. The rewritten WAL holds exactly those effects, and a reopen
// recovers the same view.
func TestCompactRacedMutations(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 1)
	tier, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]string{}
	var seen []int64
	insert := func(doc string) int64 {
		gid, err := tier.Insert(doc)
		if err != nil {
			t.Fatal(err)
		}
		live[gid] = doc
		seen = append(seen, gid)
		return gid
	}
	del := func(gid int64) {
		if ok, err := tier.Delete(gid); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", gid, ok, err)
		}
		delete(live, gid)
	}
	// 150 base rows and 70 delta rows, so the raced deletes land past the
	// first word of each bitset.
	for i := 0; i < 150; i++ {
		insert(fmt.Sprintf("base%03d", i))
	}
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	del(3)
	for i := 0; i < 70; i++ {
		insert(fmt.Sprintf("cut%03d", i))
	}
	del(151)
	queries := []string{"base130", "base003", "cut066", "cut001", "tail01", "ghost01"}
	var tail, ghost int64
	tier.beforeSwap = func() {
		tier.beforeSwap = nil
		del(130) // base row 130
		del(216) // delta row 66
		tail = insert("tail01")
		ghost = insert("ghost01")
		del(ghost)
		checkModel(t, tier, live, seen, queries...)
	}
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	if tier.beforeSwap != nil {
		t.Fatal("the hook did not run")
	}
	shape := func(tier *Tier, base, delta, tombs int) {
		t.Helper()
		checkModel(t, tier, live, seen, queries...)
		if st := shapeOf(tier); st.BaseDocs != base || st.DeltaDocs != delta || st.Tombstones != tombs {
			t.Fatalf("Stats %+v, want %d base rows, %d delta rows, %d tombstones", st, base, delta, tombs)
		}
	}
	shape(tier, 218, 1, 2)
	want := []Op{{Watermark: true, ID: ghost}, {ID: tail, Doc: "tail01"}, {Del: true, ID: 130}, {Del: true, ID: 216}}
	if got := walOps(t, cfg.WALPath); !reflect.DeepEqual(got, want) {
		t.Fatalf("rewritten WAL %+v, want %+v", got, want)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if tier, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	shape(tier, 218, 1, 2)
	if got := tier.MaxID(); got != ghost {
		t.Fatalf("MaxID = %d, want %d", got, ghost)
	}
	if err := tier.Compact(); err != nil {
		t.Fatal(err)
	}
	shape(tier, 217, 0, 0)
}

// fuzzDoc spells a short word over four letters from b.
func fuzzDoc(b byte) string {
	s := make([]byte, 2+b%5)
	for i := range s {
		s[i] = 'a' + (b>>i)&3
	}
	return string(s)
}

// FuzzTierModel decodes its input into a history of inserts, explicit-id
// applies (at the edge of the id space too), deletes, compactions and
// close+reopen on a durable tier, and holds the tier to a map model after
// every step.
func FuzzTierModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 2, 0, 3, 0, 0, 7, 4, 0, 2, 1})
	f.Add([]byte{1, 200, 1, 3, 0, 5, 3, 0, 2, 0, 4, 0, 1, 200, 0, 2})
	f.Add([]byte{5, 1, 0, 4, 5, 0, 0, 1, 3, 0, 4, 0, 5, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 96)]
		cfg := durableConfig(t.TempDir(), 1)
		tier, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { tier.Close() }()
		// rows is every document the tier's view holds, dead or live: an add
		// of one of them is a no-op until a compaction drops the dead.
		rows := map[int64]string{}
		dead := map[int64]bool{}
		live := map[int64]string{}
		var seen []int64
		maxID := int64(-1)
		add := func(id int64, doc string) {
			rows[id], live[id] = doc, doc
			seen = append(seen, id)
			maxID = max(maxID, id)
		}
		for i := 0; i+1 < len(data); i += 2 {
			arg := data[i+1]
			switch data[i] % 6 {
			case 0:
				gid, err := tier.Insert(fuzzDoc(arg))
				if maxID >= maxDocID {
					if err == nil {
						t.Fatalf("Insert past the id space = %d", gid)
					}
					break
				}
				if err != nil || gid != maxID+1 {
					t.Fatalf("Insert = %d, %v; want %d", gid, err, maxID+1)
				}
				add(gid, fuzzDoc(arg))
			case 1, 5:
				id := int64(arg % 32)
				if data[i]%6 == 5 {
					id = maxDocID + 1 - int64(arg%4)
				}
				ok, err := tier.Apply(Op{ID: id, Doc: fuzzDoc(arg)})
				if id > maxDocID {
					if !errors.Is(err, strconv.ErrRange) {
						t.Fatalf("Apply(%d): err = %v", id, err)
					}
					break
				}
				_, known := rows[id]
				if err != nil || ok == known {
					t.Fatalf("Apply(%d) = %v, %v; known %v", id, ok, err, known)
				}
				if !known {
					add(id, fuzzDoc(arg))
				}
			case 2:
				id := int64(arg)
				if len(seen) > 0 {
					id = seen[int(arg)%len(seen)]
				}
				_, wasLive := live[id]
				if ok, err := tier.Delete(id); err != nil || ok != wasLive {
					t.Fatalf("Delete(%d) = %v, %v; live %v", id, ok, err, wasLive)
				}
				if wasLive {
					delete(live, id)
					dead[id] = true
				}
			case 3:
				if err := tier.Compact(); err != nil {
					t.Fatal(err)
				}
				for id := range dead {
					delete(rows, id)
				}
				clear(dead)
			case 4:
				if err := tier.Close(); err != nil {
					t.Fatal(err)
				}
				if tier, err = Open(cfg); err != nil {
					t.Fatal(err)
				}
			}
			checkModel(t, tier, live, seen, fuzzDoc(arg))
			if got := tier.MaxID(); got != maxID {
				t.Fatalf("MaxID = %d, want %d", got, maxID)
			}
		}
	})
}
