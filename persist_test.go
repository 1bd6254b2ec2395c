package passjoin

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestSearcherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	corpus := testCorpus(rng, 200)
	orig, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadSearcherFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.Tau() != 2 {
		t.Fatalf("loaded Len=%d Tau=%d", loaded.Len(), loaded.Tau())
	}
	queries := testCorpus(rand.New(rand.NewSource(102)), 30)
	for _, q := range queries {
		a := orig.Search(q)
		b := loaded.Search(q)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d hits vs %d after round trip", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %q hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestSearcherRoundTripEmpty(t *testing.T) {
	orig, err := NewSearcher(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSearcherFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 || loaded.Tau() != 3 {
		t.Fatalf("loaded: Len=%d Tau=%d", loaded.Len(), loaded.Tau())
	}
}

// writeV1Snapshot emits the legacy corpus-only PJIX v1 format (no frozen
// section, no checksum), as produced by earlier releases.
func writeV1Snapshot(tau int, corpus []string) []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	buf.WriteString("PJIX")
	uv(1)
	uv(uint64(tau))
	uv(uint64(len(corpus)))
	for _, s := range corpus {
		uv(uint64(len(s)))
		buf.WriteString(s)
	}
	return buf.Bytes()
}

// TestReadSearcherFromV1 loads a legacy v1 snapshot: the index is rebuilt
// from the corpus and answers match a freshly built searcher.
func TestReadSearcherFromV1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := testCorpus(rng, 120)
	blob := writeV1Snapshot(2, corpus)
	loaded, err := ReadSearcherFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tau() != 2 || loaded.Len() != len(corpus) {
		t.Fatalf("v1 load: tau=%d len=%d", loaded.Tau(), loaded.Len())
	}
	for _, q := range corpus[:40] {
		a, b := fresh.Search(q), loaded.Search(q)
		if len(a) != len(b) {
			t.Fatalf("q=%q: %d hits fresh, %d from v1", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("q=%q hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
	if _, err := ReadShardedSearcherFrom(bytes.NewReader(blob), WithShards(3)); err != nil {
		t.Fatalf("sharded reader rejected v1 snapshot: %v", err)
	}
}

// TestV2SnapshotCarriesFrozenIndex asserts the cold-start contract: a
// loaded v2 searcher serves from the deserialized frozen index (visible
// through FrozenBytes in the stats) rather than re-indexing.
func TestV2SnapshotCarriesFrozenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := testCorpus(rng, 150)
	orig, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var st Stats
	loaded, err := ReadSearcherFrom(bytes.NewReader(buf.Bytes()), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.FrozenBytes == 0 || st.FrozenEntries == 0 {
		t.Fatalf("v2 load did not restore a frozen index: %+v", st)
	}
	// IndexBytes tracks the mutable build index, which the cold start must
	// never have constructed.
	if st.IndexBytes != 0 {
		t.Fatalf("v2 load rebuilt the map index: %+v", st)
	}
	for _, q := range corpus[:40] {
		a, b := orig.Search(q), loaded.Search(q)
		if len(a) != len(b) {
			t.Fatalf("q=%q: %d hits vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("q=%q hit %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

// TestShardedSnapshotRestoresFrozenIndex: a sharded searcher writes the
// snapshot a plain one writes, and reading it back restores the frozen
// index (no rebuild: IndexBytes stays 0) with results equal to the
// original's at whatever WithShards the reader is given.
func TestShardedSnapshotRestoresFrozenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpus := testCorpus(rng, 180)
	orig, err := NewShardedSearcher(corpus, 2, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf, plainBuf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.WriteTo(&plainBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plainBuf.Bytes()) {
		t.Fatalf("sharded snapshot (%d B) differs from the plain searcher's (%d B)", buf.Len(), plainBuf.Len())
	}
	var st Stats
	loaded, err := ReadShardedSearcherFrom(bytes.NewReader(buf.Bytes()), WithShards(5), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.FrozenEntries == 0 || st.IndexBytes != 0 {
		t.Fatalf("load did not restore the frozen section as it is: %+v", st)
	}
	if loaded.NumShards() != 5 || loaded.Len() != len(corpus) || loaded.Tau() != 2 {
		t.Fatalf("loaded: shards=%d len=%d tau=%d", loaded.NumShards(), loaded.Len(), loaded.Tau())
	}
	for _, q := range append(testCorpus(rng, 40), corpus[:40]...) {
		if got, want := loaded.Search(q), orig.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%q: loaded %v, original %v", q, got, want)
		}
	}
}

// TestParentCommitSnapshotsLoad reads two snapshots written by the build
// before the bulk builder (testdata/, 125 strings at tau 2): a
// ShardedSearcher's, which was corpus-only and must take the rebuild path,
// and a Searcher's, whose frozen section came out of Index.Freeze and must
// be restored as it is. Both readers must answer like a fresh build.
func TestParentCommitSnapshotsLoad(t *testing.T) {
	for name, rebuilt := range map[string]bool{"parent-sharded.pjix": true, "parent-searcher.pjix": false} {
		blob, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var st, sst Stats
		s, err := ReadSearcherFrom(bytes.NewReader(blob), WithStats(&st))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ss, err := ReadShardedSearcherFrom(bytes.NewReader(blob), WithShards(2), WithStats(&sst))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() != 125 || s.Tau() != 2 || ss.Len() != 125 || ss.Tau() != 2 || ss.NumShards() != 2 {
			t.Fatalf("%s: len=%d/%d tau=%d/%d shards=%d", name, s.Len(), ss.Len(), s.Tau(), ss.Tau(), ss.NumShards())
		}
		if (st.IndexBytes != 0) != rebuilt || (sst.IndexBytes != 0) != rebuilt || st.FrozenEntries == 0 || sst.FrozenEntries != st.FrozenEntries {
			t.Fatalf("%s: rebuilt=%v, stats %+v / %+v", name, rebuilt, st, sst)
		}
		corpus := make([]string, s.Len())
		for id := range corpus {
			corpus[id] = s.At(id)
		}
		fresh, err := NewSearcher(corpus, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range corpus {
			want := fresh.Search(q)
			if got := s.Search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q=%q: searcher %v, fresh %v", name, q, got, want)
			}
			if got := ss.Search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q=%q: sharded %v, fresh %v", name, q, got, want)
			}
		}
	}
}

// TestParentV3SnapshotBytes: the two version 3 files the commit before the
// 8-byte table rows wrote (testdata/, see internal/persist's
// TestParentSnapshots) load with their frozen section as it is and answer
// like a fresh build, and Searcher.WriteTo over the same corpus — on one
// build worker or three — writes the parent's file byte for byte: a slot's
// lists are written in table order, which the narrower rows did not change.
func TestParentV3SnapshotBytes(t *testing.T) {
	for name, tau := range map[string]int{"parent-v3-author.pjix": 2, "parent-v3-authortitle.pjix": 8} {
		blob, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		loaded, err := ReadSearcherFrom(bytes.NewReader(blob), WithStats(&st))
		if err != nil || loaded.Tau() != tau || st.IndexBytes != 0 || st.FrozenEntries == 0 {
			t.Fatalf("%s: err %v, stats %+v", name, err, st)
		}
		corpus := make([]string, loaded.Len())
		for id := range corpus {
			corpus[id] = loaded.At(id)
		}
		fresh, err := NewSearcher(corpus, tau)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewShardedSearcher(corpus, tau, WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		for label, w := range map[string]io.WriterTo{"Searcher": fresh, "ShardedSearcher": sharded} {
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), blob) {
				t.Fatalf("%s: %s.WriteTo wrote %d bytes that differ from the parent's %d (err %v)", name, label, buf.Len(), len(blob), err)
			}
		}
		for _, q := range corpus {
			if got, want := loaded.Search(q), fresh.Search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q=%q: loaded %v, fresh %v", name, q, got, want)
			}
		}
	}
}

// TestSnapshotChecksum verifies the CRC32 footer: any corrupted byte in a
// v2 snapshot must be rejected, as must a truncated one.
func TestSnapshotChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := testCorpus(rng, 60)
	orig, err := NewSearcher(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := ReadSearcherFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Flip one byte at a spread of offsets, skipping the magic/version
	// prefix (those fail with format errors before the checksum runs).
	for off := 6; off < len(blob); off += 1 + len(blob)/97 {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x20
		if _, err := ReadSearcherFrom(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupted byte at offset %d accepted", off)
		}
	}
	for _, cut := range []int{1, 2, 3, 4, 5, len(blob) / 2} {
		if _, err := ReadSearcherFrom(bytes.NewReader(blob[:len(blob)-cut])); err == nil {
			t.Fatalf("snapshot truncated by %d bytes accepted", cut)
		}
	}
	// Corrupting the version byte (v2 -> v1) must not sidestep the
	// checksum: the trailing frozen section and footer unmask it.
	relabeled := append([]byte(nil), blob...)
	relabeled[4] = 1
	if _, err := ReadSearcherFrom(bytes.NewReader(relabeled)); err == nil {
		t.Fatal("v2 snapshot relabeled as v1 accepted")
	}
	// Same through the sharded writer and reader.
	ss, err := NewShardedSearcher(corpus, 2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if _, err := ss.WriteTo(&sbuf); err != nil {
		t.Fatal(err)
	}
	sblob := sbuf.Bytes()
	bad := append([]byte(nil), sblob...)
	bad[len(bad)/2] ^= 0x01
	if _, err := ReadShardedSearcherFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted sharded snapshot accepted")
	}
}

func TestReadSearcherFromRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "NOPE\x01\x02\x03",
		"truncated":   "PJIX\x01\x02",
		"bad version": "PJIX\x63\x02\x00",
	}
	for name, blob := range cases {
		if _, err := ReadSearcherFrom(strings.NewReader(blob)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadSearcherFromTruncatedString(t *testing.T) {
	orig, _ := NewSearcher([]string{"hello world"}, 1)
	var buf bytes.Buffer
	orig.WriteTo(&buf)
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadSearcherFrom(bytes.NewReader(cut)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestReadSearcherFromHugeLengthRejected(t *testing.T) {
	// magic, version=1, tau=1, count=1, strlen=2^40 (over the limit)
	blob := []byte("PJIX\x01\x01\x01")
	blob = append(blob, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // varint 2^40
	if _, err := ReadSearcherFrom(bytes.NewReader(blob)); err == nil {
		t.Error("oversized string length accepted")
	}
}

func TestReadSearcherFromHugeCountRejected(t *testing.T) {
	// magic, version=1, tau=1, count=2^62: the count must not be
	// preallocated before the data proves it (a corrupt header would
	// panic or OOM); the truncated body must surface as a clean error.
	blob := []byte("PJIX\x01\x01")
	blob = append(blob, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40) // varint 2^62
	if _, err := ReadSearcherFrom(bytes.NewReader(blob)); err == nil {
		t.Error("huge corpus count accepted")
	}
	if _, err := ReadShardedSearcherFrom(bytes.NewReader(blob)); err == nil {
		t.Error("huge corpus count accepted by sharded reader")
	}
}
