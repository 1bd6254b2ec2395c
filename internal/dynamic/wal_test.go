package dynamic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tier.wal")
	w, ops, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("fresh WAL replayed %d ops", len(ops))
	}
	want := []Op{
		{ID: 0, Doc: "vldb"},
		{ID: 1, Doc: ""},
		{Del: true, ID: 0},
		{ID: 7, Doc: "sigmod \x00 binary bytes \xff"},
	}
	for _, op := range want {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != int64(len(want)) || w.Bytes() <= 0 {
		t.Fatalf("records=%d bytes=%d", w.Records(), w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

// TestWALTornTailTruncated simulates a crash mid-append: the replayed
// prefix must survive, the torn tail must be truncated, and subsequent
// appends must land cleanly after the prefix.
func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tier.wal")
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Op{ID: 0, Doc: "alpha"})
	w.Append(Op{ID: 1, Doc: "beta"})
	w.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut += 3 {
		if err := os.WriteFile(path, whole[:len(whole)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, ops, err := OpenWAL(path, false)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(ops) != 1 || ops[0].Doc != "alpha" {
			t.Fatalf("cut %d: replayed %+v", cut, ops)
		}
		if err := w.Append(Op{ID: 2, Doc: "gamma"}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, ops, err = OpenWAL(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != 2 || ops[1].Doc != "gamma" {
			t.Fatalf("cut %d after repair: %+v", cut, ops)
		}
		os.WriteFile(path, whole, 0o644)
	}
}

// TestWALCorruptRecordStopsReplay flips payload bytes and checks replay
// keeps the clean prefix and reports corruption as ErrWALCorrupt at the
// end of that prefix. The envelope's failures themselves are
// internal/persist's TestRecordCorruption.
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(encodeOp(Op{ID: 3, Doc: "good"}))
	firstLen := buf.Len()
	buf.Write(encodeOp(Op{ID: 4, Doc: "soon corrupt"}))
	blob := buf.Bytes()
	blob[firstLen+10] ^= 0xff

	ops, good, err := ReplayWAL(bytes.NewReader(blob))
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}
	if len(ops) != 1 || ops[0].ID != 3 || good != int64(firstLen) {
		t.Fatalf("ops=%+v good=%d", ops, good)
	}
}

// encodeOp is one record on its own.
func encodeOp(op Op) []byte { return AppendOp(nil, op) }

func TestWALRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tier.wal")
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Append(Op{ID: int64(i), Doc: "doc"})
	}
	tail := []Op{{ID: 8, Doc: "doc"}, {Del: true, ID: 3}}
	if err := w.Rewrite(tail); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 {
		t.Fatalf("records=%d after rewrite", w.Records())
	}
	// Appends after a rewrite land after the rewritten tail.
	if err := w.Append(Op{ID: 11, Doc: "post"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, ops, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := append(tail, Op{ID: 11, Doc: "post"})
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("replayed %+v, want %+v", ops, want)
	}
}

// FuzzWALReplay feeds arbitrary bytes to the replayer, which must never
// panic and must report a byte offset no larger than the input.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeOp(Op{ID: 1, Doc: "seed"}))
	f.Add(append(encodeOp(Op{Del: true, ID: 2}), 0x01, 0x02, 0x03))
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<30)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, good, err := ReplayWAL(bytes.NewReader(data))
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside input of %d bytes", good, len(data))
		}
		if err == nil {
			// Clean replay must re-encode to exactly the consumed prefix.
			var buf bytes.Buffer
			for _, op := range ops {
				buf.Write(encodeOp(op))
			}
			if !bytes.Equal(buf.Bytes(), data[:good]) {
				t.Fatalf("clean replay is not a faithful prefix decode")
			}
		}
	})
}

// TestWALFsyncMode drives the power-loss-durable variant: every append
// is flushed, and replay round-trips as usual.
func TestWALFsyncMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tier.wal")
	w, _, err := OpenWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{ID: 0, Doc: "synced"}, {Del: true, ID: 0}}
	for _, op := range want {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	// The records are on disk before Close (no buffering to lose).
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops, _, rerr := ReplayWAL(bytes.NewReader(blob))
	if rerr != nil || !reflect.DeepEqual(ops, want) {
		t.Fatalf("on-disk replay mid-session: %+v err=%v", ops, rerr)
	}
	w.Close()
}
