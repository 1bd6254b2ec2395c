package passjoin

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"passjoin/internal/dataset"
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
	if _, err := ReadSearcherFrom(bytes.NewReader(blob), WithShards(3)); err != nil {
		t.Fatalf("reader on 3 workers rejected v1 snapshot: %v", err)
	}
}

// bruteSearch is the brute-force answer to a search over docs, (id, string)
// pairs: every id within tau of q, in Search order (distance, then id).
func bruteSearch(docs iter.Seq2[int, string], q string, tau int) []Match {
	var out []Match
	for id, s := range docs {
		if d := EditDistance(q, s); d <= tau {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	slices.SortFunc(out, func(a, b Match) int { return cmp.Or(a.Dist-b.Dist, a.ID-b.ID) })
	return out
}

// corpusOf returns the strings s indexes.
func corpusOf(s *Searcher) []string {
	corpus := make([]string, s.Len())
	for id := range corpus {
		corpus[id] = s.At(id)
	}
	return corpus
}

// searchFunc is a searcher's Search.
type searchFunc func(q string, opts ...QueryOption) []Match

// requireBruteForceAnswers fails unless every reader's searcher over a
// loaded snapshot finds, for every string of the corpus as the query, what
// brute force finds in the expected corpus — which is not a comparison of
// the index build with itself, as a fresh NewSearcher on the side would be.
func requireBruteForceAnswers(t *testing.T, label string, corpus []string, tau int, searchers map[string]searchFunc) {
	t.Helper()
	hits := 0
	for _, q := range corpus {
		want := bruteSearch(slices.All(corpus), q, tau)
		hits += len(want) - 1
		for name, search := range searchers {
			if got := search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s q=%q: %s answers %v, brute force %v", label, q, name, got, want)
			}
		}
	}
	if hits < len(corpus)/8 {
		t.Fatalf("%s: only %d near-duplicates among %d strings — the corpus does not exercise the index", label, hits, len(corpus))
	}
}

// TestV2SnapshotCarriesFrozenIndex (named for what a snapshot carried until
// it became a corpus) holds a reader to the constructor's contract: a loaded
// searcher reports through WithStats exactly the build counters NewSearcher
// reports over the same corpus, and answers like it.
func TestV2SnapshotCarriesFrozenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := testCorpus(rng, 150)
	var built, st Stats
	orig, err := NewSearcher(corpus, 2, WithStats(&built))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSearcherFrom(bytes.NewReader(buf.Bytes()), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.FrozenBytes == 0 || st.FrozenEntries == 0 || st.IndexEntries == 0 || st != built {
		t.Fatalf("load reports %+v, the constructor %+v", st, built)
	}
	for _, q := range corpus[:40] {
		if a, b := orig.Search(q), loaded.Search(q); !reflect.DeepEqual(a, b) {
			t.Fatalf("q=%q: original %v, loaded %v", q, a, b)
		}
	}
}

// TestShardedSnapshotRestoresFrozenIndex (named likewise): a searcher built
// on three workers writes the snapshot a one-worker one writes, and that
// snapshot is what every build that reads version 3 already accepts —
// version 3, the corpus, a zero hasFrozen byte, the checksum of those bytes
// and nothing more — from which the reader, on the default, one, three or
// five build workers, gives searchers that answer exactly like the original.
func TestShardedSnapshotRestoresFrozenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpus := testCorpus(rng, 180)
	orig, err := NewSearcher(corpus, 2, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSearcher(corpus, 2, WithShards(1))
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
	blob := buf.Bytes()
	if !bytes.Equal(blob, plainBuf.Bytes()) {
		t.Fatalf("the 3-worker snapshot (%d B) differs from the 1-worker one (%d B)", buf.Len(), plainBuf.Len())
	}
	want := append(writeV1Snapshot(2, corpus), 0) // the corpus, then hasFrozen
	want[4] = 3
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(blob, want) {
		t.Fatalf("the snapshot's %d bytes are not version 3, the corpus, a zero flag and their checksum (%d bytes)", len(blob), len(want))
	}
	searchers := map[string]searchFunc{}
	s, err := ReadSearcherFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	searchers["ReadSearcherFrom"] = s.Search
	for _, shards := range []int{1, 3, 5} {
		var st Stats
		loaded, err := ReadSearcherFrom(bytes.NewReader(blob), WithShards(shards), WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.NumShards() != shards || loaded.Len() != len(corpus) || loaded.Tau() != 2 || st.FrozenEntries == 0 {
			t.Fatalf("loaded: shards=%d len=%d tau=%d stats %+v", loaded.NumShards(), loaded.Len(), loaded.Tau(), st)
		}
		searchers[fmt.Sprintf("ReadSearcherFrom/%d", shards)] = loaded.Search
	}
	for _, q := range append(testCorpus(rng, 40), corpus[:40]...) {
		want := orig.Search(q)
		for name, search := range searchers {
			if got := search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%q: %s %v, original %v", q, name, got, want)
			}
		}
	}
}

// TestParentCommitSnapshotsLoad reads two snapshots written by the build
// before the bulk builder (testdata/, 125 strings at tau 2): a
// ShardedSearcher's, which was corpus-only, and a Searcher's, whose frozen
// section (Index.Freeze's, with the segment hashes of its day) is walked
// past. The reader, on one build worker and on two, must answer like brute
// force over the file's strings, and report the build it made.
func TestParentCommitSnapshotsLoad(t *testing.T) {
	for _, name := range []string{"parent-sharded.pjix", "parent-searcher.pjix"} {
		blob, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var st, sst Stats
		s, err := ReadSearcherFrom(bytes.NewReader(blob), WithShards(1), WithStats(&st))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ss, err := ReadSearcherFrom(bytes.NewReader(blob), WithShards(2), WithStats(&sst))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() != 125 || s.Tau() != 2 || ss.Len() != 125 || ss.Tau() != 2 || ss.NumShards() != 2 {
			t.Fatalf("%s: len=%d/%d tau=%d/%d shards=%d", name, s.Len(), ss.Len(), s.Tau(), ss.Tau(), ss.NumShards())
		}
		if st.IndexBytes == 0 || st.FrozenEntries == 0 || sst.IndexBytes != st.IndexBytes || sst.FrozenEntries != st.FrozenEntries {
			t.Fatalf("%s: stats %+v / %+v", name, st, sst)
		}
		requireBruteForceAnswers(t, name, corpusOf(s), 2, map[string]searchFunc{"1 worker": s.Search, "2 workers": ss.Search})
	}
}

// TestParentV3SnapshotsLoad: the two version 3 files the commit before the
// 8-byte table rows wrote (testdata/, see internal/persist's
// TestParentSnapshots), each with a frozen section, open as exactly the
// generator's corpus on any number of build workers and answer like brute
// force over it.
func TestParentV3SnapshotsLoad(t *testing.T) {
	for name, want := range map[string]struct {
		tau    int
		corpus []string
	}{
		"parent-v3-author.pjix":      {2, dataset.Author(400, 3)},
		"parent-v3-authortitle.pjix": {8, dataset.AuthorTitle(120, 3)},
	} {
		blob, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		s, err := ReadSearcherFrom(bytes.NewReader(blob), WithStats(&st))
		if err != nil || s.Tau() != want.tau || st.FrozenEntries == 0 || !slices.Equal(corpusOf(s), want.corpus) {
			t.Fatalf("%s: err %v, stats %+v, or not the generator's corpus", name, err, st)
		}
		ss, err := ReadSearcherFrom(bytes.NewReader(blob), WithShards(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireBruteForceAnswers(t, name, want.corpus, want.tau, map[string]searchFunc{"default workers": s.Search, "3 workers": ss.Search})
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
	// checksum: the trailing flag byte and footer unmask it.
	relabeled := append([]byte(nil), blob...)
	relabeled[4] = 1
	if _, err := ReadSearcherFrom(bytes.NewReader(relabeled)); err == nil {
		t.Fatal("v2 snapshot relabeled as v1 accepted")
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

// TestReadSearcherFromHugeLengthNotAllocated: a declared length is not memory
// until the bytes arrive. The 15-byte file that announces one string of 1 GiB
// (within the limit) and holds three bytes of it must fail having allocated
// next to nothing — under a container limit the gigabyte it used to take
// first is a kill, not an error.
func TestReadSearcherFromHugeLengthNotAllocated(t *testing.T) {
	blob := binary.AppendUvarint([]byte("PJIX\x03\x02\x01"), 1<<30) // version 3, tau 2, one string
	blob = append(blob, "abc"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSearcherFrom(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("%d-byte file with a 1 GiB string: err %v, want an unexpected EOF", len(blob), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("the reader allocated %d bytes for a %d-byte file", grew, len(blob))
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
}
