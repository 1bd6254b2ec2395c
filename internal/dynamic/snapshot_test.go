package dynamic

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadBaseSnapshot: whatever the bytes, readBaseSnapshot returns an
// error or a snapshot, never a panic; it allocates what the input holds
// plus the capped preallocations of its gid and corpus slices, never what
// a header declares; and what it parses writes back as bytes that read as
// the same snapshot and write back unchanged. The generated seeds write
// back as their own bytes; the parent-wal ones carry a frozen section,
// which is read and dropped.
func FuzzReadBaseSnapshot(f *testing.F) {
	for _, s := range []struct {
		gids   []int64
		corpus []string
		next   int64
	}{
		{nil, nil, 0},
		{[]int64{0, 7, 300}, []string{"", "vldb", "pass join"}, 301},
		{[]int64{5}, []string{"x"}, 1 << 62},
	} {
		var buf bytes.Buffer
		if err := encodeBaseSnapshot(&buf, 2, s.next, s.gids, s.corpus); err != nil {
			f.Fatal(err)
		}
		gids, corpus, tau, next, err := readBaseSnapshot(bytes.NewReader(buf.Bytes()))
		var again bytes.Buffer
		if err != nil || encodeBaseSnapshot(&again, tau, next, gids, corpus) != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			f.Fatalf("seed %v does not write back as its own bytes (err %v)", s.gids, err)
		}
		f.Add(buf.Bytes())
	}
	for _, name := range []string{"shard-0.snap", "shard-1.snap"} {
		if blob, err := os.ReadFile("../../testdata/parent-wal/" + name); err == nil {
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gids, corpus, tau, next, err := readBaseSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// 8 MiB of gids and 16 MiB of corpus headers preallocated at most,
		// buffers, and a few copies of the input's strings.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20+8*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var out, again bytes.Buffer
		if err := encodeBaseSnapshot(&out, tau, next, gids, corpus); err != nil {
			t.Fatalf("writing back a parsed snapshot: %v", err)
		}
		g2, c2, tau2, next2, err := readBaseSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil || !reflect.DeepEqual(g2, gids) || !reflect.DeepEqual(c2, corpus) || tau2 != tau || next2 != next {
			t.Fatalf("written-back snapshot reads back differently (err %v)", err)
		}
		if err := encodeBaseSnapshot(&again, tau2, next2, g2, c2); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("writing back is not a fixed point (err %v)", err)
		}
	})
}
