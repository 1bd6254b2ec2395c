package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/index"
	"passjoin/internal/selection"
)

// snapshotOf bulk-builds the index of corpus and serializes both.
func snapshotOf(t testing.TB, corpus []string, tau int) []byte {
	t.Helper()
	fz, err := index.BuildFrozen(corpus, tau, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, tau, len(corpus), func(id int) string { return corpus[id] }, fz)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot: %d bytes reported, %d written, err %v", n, buf.Len(), err)
	}
	return buf.Bytes()
}

// requireSameAnswers fails unless a matcher over the loaded index answers
// every query exactly as one over a fresh bulk build of the same corpus.
func requireSameAnswers(t *testing.T, label string, corpus []string, tau int, fz *index.Frozen, queries []string) {
	t.Helper()
	loaded, err := core.NewSealedMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil, corpus, fz)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh, err := core.BuildSealedMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil, slices.Clone(corpus), 1)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, q := range queries {
		want := fresh.Query(q)
		if got := loaded.Query(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s q=%q: loaded index answers %v, fresh build %v", label, q, got, want)
		}
		hits += len(want)
	}
	if hits < len(queries)/4 {
		t.Fatalf("%s: only %d hits over %d queries — the query set does not exercise the index", label, hits, len(queries))
	}
}

// queriesFor returns n queries over corpus: its strings, verbatim and with
// one or two edits.
func queriesFor(corpus []string, n int) []string {
	rng := rand.New(rand.NewSource(200))
	out := make([]string, n)
	for k := range out {
		b := []byte(corpus[rng.Intn(len(corpus))])
		for e := rng.Intn(3); e > 0 && len(b) > 0; e-- {
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
		}
		out[k] = string(b)
	}
	return out
}

// TestRoundTrip: what WriteSnapshot writes is version 3 and reads back as
// the same corpus, threshold and lookups; without an index it reads back as
// a corpus alone.
func TestRoundTrip(t *testing.T) {
	corpus := append(dataset.Author(400, 3), "", "a", "ab")
	for tau := 0; tau <= 3; tau++ {
		blob := snapshotOf(t, corpus, tau)
		if v, n := binary.Uvarint(blob[len(magic):]); v != version3 || n != 1 {
			t.Fatalf("snapshot declares version %d", v)
		}
		got, gotTau, fz, err := ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("tau=%d: %v", tau, err)
		}
		if !slices.Equal(got, corpus) || gotTau != tau || fz == nil {
			t.Fatalf("tau=%d: read back %d strings at tau %d, frozen %v", tau, len(got), gotTau, fz != nil)
		}
		requireSameAnswers(t, "round trip", got, tau, fz, queriesFor(corpus, 200))
	}
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, 2, len(corpus), func(id int) string { return corpus[id] }, nil); err != nil {
		t.Fatal(err)
	}
	if got, tau, fz, err := ReadSnapshot(&buf); err != nil || !slices.Equal(got, corpus) || tau != 2 || fz != nil {
		t.Fatalf("corpus-only snapshot: %d strings, tau %d, frozen %v, err %v", len(got), tau, fz != nil, err)
	}
}

// v2Hashes returns the offsets of the 8-byte segment hashes a version 2
// snapshot stores in front of every posting list.
func v2Hashes(t *testing.T, blob []byte) []int {
	t.Helper()
	pos := len(magic)
	uvarint := func() int {
		v, n := binary.Uvarint(blob[pos:])
		if n <= 0 {
			t.Fatalf("bad uvarint at offset %d", pos)
		}
		pos += n
		return int(v)
	}
	if v := uvarint(); v != version2 {
		t.Fatalf("version %d, want 2", v)
	}
	tau := uvarint()
	for count := uvarint(); count > 0; count-- {
		pos += uvarint()
	}
	if blob[pos] != hasFrozen {
		return nil
	}
	pos++
	uvarint() // total postings
	var at []int
	for groups := uvarint(); groups > 0; groups-- {
		uvarint() // L
		for slot := 0; slot <= tau; slot++ {
			for keys := uvarint(); keys > 0; keys-- {
				at = append(at, pos)
				pos += 8
				for n := uvarint(); n > 0; n-- {
					uvarint()
				}
			}
		}
	}
	if pos != len(blob)-4 {
		t.Fatalf("walked to offset %d of %d", pos, len(blob))
	}
	return at
}

// TestParentSnapshots loads the two version 2 files the commit before the
// bulk builder wrote (testdata/ at the root of the repository; never
// regenerated): the sharded one is corpus-only, the searcher's carries the
// frozen section with the segment hashes of the hash function of its day.
// The loader ignores them, so the file answers like a fresh build — and
// still does when they are all zeroed, which used to lose every lookup.
func TestParentSnapshots(t *testing.T) {
	for name, frozen := range map[string]bool{"parent-sharded.pjix": false, "parent-searcher.pjix": true} {
		blob, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		hashes := v2Hashes(t, blob)
		if (len(hashes) > 0) != frozen {
			t.Fatalf("%s: %d stored hashes", name, len(hashes))
		}
		zeroed := slices.Clone(blob)
		for _, at := range hashes {
			clear(zeroed[at : at+8])
		}
		binary.LittleEndian.PutUint32(zeroed[len(zeroed)-4:], crc32.ChecksumIEEE(zeroed[:len(zeroed)-4]))
		for label, b := range map[string][]byte{name: blob, name + " with zeroed hashes": zeroed} {
			corpus, tau, fz, err := ReadSnapshot(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(corpus) != 125 || tau != 2 || (fz != nil) != frozen {
				t.Fatalf("%s: %d strings, tau %d, frozen %v", label, len(corpus), tau, fz != nil)
			}
			if fz != nil {
				requireSameAnswers(t, label, corpus, tau, fz, queriesFor(corpus, 200))
			}
		}
	}
	t.Run("v3", parentV3Snapshots)
}

// parentV3Snapshots, the second half of TestParentSnapshots, loads the
// version 3 files the last commit with 16-byte table rows wrote (passjoind
// -save over passgen -seed 3 corpora: 400 author names at tau 2 on one
// worker, 120 author+title strings at tau 8 on two; never regenerated). Rows are never persisted, but the order of a slot's
// lists in the file is the order of its table, so a fresh build of the
// loaded corpus must write the parent's bytes exactly — and the loaded
// index must answer like it.
func parentV3Snapshots(t *testing.T) {
	for name, wantTau := range map[string]int{"parent-v3-author.pjix": 2, "parent-v3-authortitle.pjix": 8} {
		blob, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		corpus, tau, fz, err := ReadSnapshot(bytes.NewReader(blob))
		if err != nil || tau != wantTau || fz == nil {
			t.Fatalf("%s: tau %d, frozen %v, err %v", name, tau, fz != nil, err)
		}
		requireSameAnswers(t, name, corpus, tau, fz, queriesFor(corpus, 200))
		if fresh := snapshotOf(t, corpus, tau); !bytes.Equal(fresh, blob) {
			t.Fatalf("%s: a fresh build writes %d bytes that differ from the parent's %d", name, len(fresh), len(blob))
		}
	}
}

// TestCorruptSnapshots: an unknown version, a snapshot cut short at any
// byte and a snapshot with any single byte changed are all errors, never a
// panic and never an index.
func TestCorruptSnapshots(t *testing.T) {
	blob := snapshotOf(t, dataset.Author(40, 5), 2)
	if _, _, _, err := ReadSnapshot(bytes.NewReader(blob)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	future := slices.Clone(blob)
	future[len(magic)] = 4
	if _, _, _, err := ReadSnapshot(bytes.NewReader(future)); err == nil {
		t.Error("version 4 accepted")
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, _, _, err := ReadSnapshot(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", cut, len(blob))
		}
	}
	for at := range blob {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			bad := slices.Clone(blob)
			bad[at] ^= flip
			if _, _, _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
				t.Fatalf("byte %d of %d xor %#x accepted", at, len(blob), flip)
			}
		}
	}
}

// FuzzReadSnapshot: whatever the bytes, ReadSnapshot returns an error or a
// snapshot that can be queried and written back out unchanged.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(snapshotOf(f, dataset.Author(30, 1), 2))
	f.Add(snapshotOf(f, []string{"", "a", "abc", "abd"}, 0))
	for _, name := range []string{"parent-sharded.pjix", "parent-searcher.pjix", "parent-v3-author.pjix"} {
		if blob, err := os.ReadFile("../../testdata/" + name); err == nil {
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		corpus, tau, fz, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fz != nil {
			m, err := core.NewSealedMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil, corpus, fz)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range corpus[:min(len(corpus), 16)] {
				m.Query(q)
			}
		}
		var buf bytes.Buffer
		if _, err := WriteSnapshot(&buf, tau, len(corpus), func(id int) string { return corpus[id] }, fz); err != nil {
			t.Fatal(err)
		}
		again, againTau, againFz, err := ReadSnapshot(&buf)
		if err != nil || !slices.Equal(again, corpus) || againTau != tau || (againFz != nil) != (fz != nil) {
			t.Fatalf("rewritten snapshot reads back as %d strings, tau %d, frozen %v, err %v", len(again), againTau, againFz != nil, err)
		}
	})
}
