package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"passjoin/internal/core"
	"passjoin/internal/dataset"
	"passjoin/internal/selection"
)

// snapshotOf serializes corpus at tau.
func snapshotOf(t testing.TB, corpus []string, tau int) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, tau, len(corpus), func(id int) string { return corpus[id] })
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot: %d bytes reported, %d written, err %v", n, buf.Len(), err)
	}
	return buf.Bytes()
}

// requireSameAnswers fails unless the index a reader builds over a loaded
// corpus — the bulk build — answers every query exactly as a fresh mutable
// matcher does, which probes the map index and shares no code with it.
func requireSameAnswers(t *testing.T, label string, corpus []string, tau int, queries []string) {
	t.Helper()
	loaded, err := core.BuildSealedMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil, slices.Clone(corpus), 2)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh, err := core.NewMatcher(tau, selection.MultiMatch, core.VerifyExtensionShared, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		fresh.InsertSilent(s)
	}
	hits := 0
	for _, q := range queries {
		want := fresh.Query(q)
		if got := loaded.Query(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s q=%q: loaded corpus answers %v, fresh build %v", label, q, got, want)
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

// TestRoundTrip: what WriteSnapshot writes is what every build that reads
// version 3 already accepts — version 3, the corpus, a zero hasFrozen byte
// and the checksum of all of it, nothing else — and reads back as the same
// corpus and threshold.
func TestRoundTrip(t *testing.T) {
	corpus := append(dataset.Author(400, 3), "", "a", "ab")
	for tau := 0; tau <= 3; tau++ {
		blob := snapshotOf(t, corpus, tau)
		if v, n := binary.Uvarint(blob[len(magic):]); v != version3 || n != 1 {
			t.Fatalf("snapshot declares version %d", v)
		}
		size := len(magic) + 1 + 1 + 2 + 1 + 4 // version, tau, a two-byte count; flag, footer
		for _, s := range corpus {
			size += 1 + len(s)
		}
		body, footer := blob[:len(blob)-4], blob[len(blob)-4:]
		if len(blob) != size || body[len(body)-1] != 0 || binary.LittleEndian.Uint32(footer) != crc32.ChecksumIEEE(body) {
			t.Fatalf("tau=%d: %d bytes (a corpus alone takes %d), flag %d, footer %x over checksum %08x",
				tau, len(blob), size, body[len(body)-1], footer, crc32.ChecksumIEEE(body))
		}
		got, gotTau, err := ReadSnapshot(bytes.NewReader(blob))
		if err != nil || !slices.Equal(got, corpus) || gotTau != tau {
			t.Fatalf("tau=%d: read back %d strings at tau %d, err %v", tau, len(got), gotTau, err)
		}
	}
	// A writer's failure is the snapshot's, whichever flush it strikes.
	blob := snapshotOf(t, corpus, 2)
	for _, room := range []int{0, len(blob) / 2, len(blob) - 1} {
		w := &fullWriter{room: room}
		at := func(id int) string { return corpus[id] }
		if _, err := WriteSnapshot(w, 2, len(corpus), at); !errors.Is(err, errFull) {
			t.Fatalf("writer with room for %d of %d bytes: err %v", room, len(blob), err)
		}
	}
}

// fullWriter accepts room bytes and fails from there on.
type fullWriter struct{ room int }

var errFull = errors.New("disk full")

func (w *fullWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errFull
	}
	w.room -= len(p)
	return len(p), nil
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

// readFixture loads a file of testdata/ at the root of the repository.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestParentSnapshots loads the two version 2 files the commit before the
// bulk builder wrote (testdata/ at the root of the repository; never
// regenerated): the sharded one is corpus-only, the searcher's carries the
// frozen section with the segment hashes of the hash function of its day.
// The reader walks past the section, so the file opens as its corpus, which
// answers like a fresh build — and still does when the hashes are all
// zeroed, which used to lose every lookup.
func TestParentSnapshots(t *testing.T) {
	for name, frozen := range map[string]bool{"parent-sharded.pjix": false, "parent-searcher.pjix": true} {
		blob := readFixture(t, name)
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
			corpus, tau, err := ReadSnapshot(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(corpus) != 125 || tau != 2 {
				t.Fatalf("%s: %d strings, tau %d", label, len(corpus), tau)
			}
			requireSameAnswers(t, label, corpus, tau, queriesFor(corpus, 200))
		}
	}
	t.Run("v3", parentV3Snapshots)
}

// parentV3Snapshots, the second half of TestParentSnapshots, loads the
// version 3 files the last commit with 16-byte table rows wrote (passjoind
// -save over passgen -seed 3 corpora: 400 author names at tau 2 on one
// worker, 120 author+title strings at tau 8 on two; never regenerated). Both
// carry a frozen section — they are larger than their corpus written back —
// and open as exactly the generator's strings, which answer like a fresh
// build.
func parentV3Snapshots(t *testing.T) {
	for name, want := range map[string]struct {
		tau    int
		corpus []string
	}{
		"parent-v3-author.pjix":      {2, dataset.Author(400, 3)},
		"parent-v3-authortitle.pjix": {8, dataset.AuthorTitle(120, 3)},
	} {
		blob := readFixture(t, name)
		corpus, tau, err := ReadSnapshot(bytes.NewReader(blob))
		if err != nil || tau != want.tau || !slices.Equal(corpus, want.corpus) {
			t.Fatalf("%s: %d strings at tau %d, err %v; want the generator's %d at tau %d", name, len(corpus), tau, err, len(want.corpus), want.tau)
		}
		if again := snapshotOf(t, corpus, tau); len(again) >= len(blob) {
			t.Fatalf("%s: %d bytes, its corpus alone %d — the fixture carries no frozen section", name, len(blob), len(again))
		}
		requireSameAnswers(t, name, corpus, tau, queriesFor(corpus, 200))
	}
}

// TestCorruptSnapshots: an unknown version, a snapshot cut short at any
// byte and a snapshot with any single byte changed are all errors, never a
// panic and never a corpus — in a file of this build and in files of older
// ones (version 3, and version 2 with stored hashes), where most bytes
// belong to a frozen section the reader only walks past. The small file takes
// three masks at every byte; the fixtures, thirty times the work, one of the
// three at each byte in turn.
func TestCorruptSnapshots(t *testing.T) {
	own := snapshotOf(t, dataset.Author(40, 5), 2)
	future := slices.Clone(own)
	future[len(magic)] = 4
	if _, _, err := ReadSnapshot(bytes.NewReader(future)); err == nil {
		t.Error("version 4 accepted")
	}
	masks := []byte{0x01, 0x80, 0xff}
	for name, blob := range map[string][]byte{
		"own":                   own,
		"parent-v3-author.pjix": readFixture(t, "parent-v3-author.pjix"),
		"parent-searcher.pjix":  readFixture(t, "parent-searcher.pjix"),
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, _, err := ReadSnapshot(bytes.NewReader(blob)); err != nil {
				t.Fatalf("pristine snapshot rejected: %v", err)
			}
			for cut := 0; cut < len(blob); cut++ {
				if _, _, err := ReadSnapshot(bytes.NewReader(blob[:cut])); err == nil {
					t.Fatalf("snapshot truncated to %d of %d bytes accepted", cut, len(blob))
				}
			}
			bad := slices.Clone(blob)
			for at := range blob {
				flips := masks
				if name != "own" {
					flips = masks[at%3:][:1]
				}
				for _, flip := range flips {
					bad[at] = blob[at] ^ flip
					if _, _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
						t.Fatalf("byte %d of %d xor %#x accepted", at, len(blob), flip)
					}
				}
				bad[at] = blob[at]
			}
		})
	}
}

// TestSectionIsConsumed: handed a *bufio.Reader, the reader takes exactly a
// snapshot's bytes from it, frozen section or none — the dynamic tier's base
// snapshots parse their own header and then a PJIX payload off one stream.
func TestSectionIsConsumed(t *testing.T) {
	for _, name := range []string{"parent-sharded.pjix", "parent-searcher.pjix", "parent-v3-author.pjix"} {
		br := bufio.NewReader(bytes.NewReader(append(readFixture(t, name), "tail"...)))
		if _, _, err := ReadSnapshot(br); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rest, _ := io.ReadAll(br); string(rest) != "tail" {
			t.Fatalf("%s: %q left behind the snapshot, want %q", name, rest, "tail")
		}
	}
}

// FuzzReadSnapshot: whatever the bytes, ReadSnapshot returns an error or a
// corpus that can be written back out and read again unchanged.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(snapshotOf(f, dataset.Author(30, 1), 2))
	f.Add(snapshotOf(f, []string{"", "a", "abc", "abd"}, 0))
	for _, name := range []string{"parent-sharded.pjix", "parent-searcher.pjix", "parent-v3-author.pjix"} {
		if blob, err := os.ReadFile("../../testdata/" + name); err == nil {
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		corpus, tau, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, againTau, err := ReadSnapshot(bytes.NewReader(snapshotOf(t, corpus, tau)))
		if err != nil || !slices.Equal(again, corpus) || againTau != tau {
			t.Fatalf("rewritten snapshot reads back as %d strings, tau %d, err %v", len(again), againTau, err)
		}
	})
}
