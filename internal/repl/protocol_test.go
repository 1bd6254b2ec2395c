package repl

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"passjoin/internal/dynamic"
	"passjoin/internal/persist"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xAB}, 10_000)}
	for i, p := range payloads {
		if err := writeFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range payloads {
		typ, got, err := readFrame(br)
		if err != nil {
			t.Fatalf("readFrame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type = %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if _, _, err := readFrame(br); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestReadFrameCorruption: every envelope failure (internal/persist's
// TestRecordCorruption owns the table) reaches the follower as
// ErrProtocol, which drops the link, still wrapping persist.ErrRecord.
func TestReadFrameCorruption(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		writeFrame(&buf, frameOps, []byte("payload-bytes"))
		return buf.Bytes()
	}
	cases := map[string]func([]byte) []byte{
		"torn header":   func(b []byte) []byte { return b[:5] },
		"torn payload":  func(b []byte) []byte { return b[:len(b)-3] },
		"flipped byte":  func(b []byte) []byte { b[10] ^= 0x40; return b },
		"flipped crc":   func(b []byte) []byte { b[5] ^= 0x01; return b },
		"zero length":   func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0, 0, 0, 0; return b },
		"huge length":   func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0xFF, 0xFF, 0xFF, 0xFF; return b },
		"swapped order": func(b []byte) []byte { b[8], b[9] = b[9], b[8]; return b },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			b := mutate(frame())
			_, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)))
			if !errors.Is(err, ErrProtocol) || !errors.Is(err, persist.ErrRecord) {
				t.Fatalf("err = %v, want ErrProtocol wrapping persist.ErrRecord", err)
			}
		})
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []hello{
		{Proto: 1, Epoch: 42, Tau: 2, Next: 1, Snap: true},
		{Proto: 1, Epoch: 1<<62 - 1, Tau: 0, Next: 1 << 40, Snap: false},
	} {
		got, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatalf("decodeHello(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
	for name, raw := range map[string][]byte{
		"empty":       {},
		"short":       {1, 2},
		"bad trailer": append(encodeHello(hello{Proto: 1})[:len(encodeHello(hello{Proto: 1}))-1], 7),
		"extra bytes": append(encodeHello(hello{Proto: 1}), 0),
	} {
		if _, err := decodeHello(raw); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: err = %v, want ErrProtocol", name, err)
		}
	}
}

func TestOpsRoundTrip(t *testing.T) {
	ops := []dynamic.Op{
		{ID: 0, Doc: "hello"},
		{ID: 7, Doc: ""},
		{Del: true, ID: 3},
	}
	first, got, err := decodeRecords(frameOps, encodeOps(99, ops))
	if err != nil {
		t.Fatalf("decodeOps: %v", err)
	}
	if first != 99 {
		t.Fatalf("firstSeq = %d, want 99", first)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, got[i], ops[i])
		}
	}
}

func TestDecodeOpsRejectsMalformed(t *testing.T) {
	valid := encodeOps(5, []dynamic.Op{{ID: 1, Doc: "x"}, {ID: 2, Doc: "y"}})
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)-2],
		"wrong count":    append(encodeOps(5, nil), dynamic.AppendOp(nil, dynamic.Op{ID: 1, Doc: "x"})...),
		"corrupt record": flip(valid, len(valid)-1),
		"trailing bytes": append(append([]byte{}, valid...), 0xFF),
		// A watermark is a WAL record no frame carries: accepted, the
		// follower would insert an empty document under its id.
		"watermark": encodeOps(5, []dynamic.Op{{Watermark: true, ID: 9}}),
	}
	for name, raw := range cases {
		if _, _, err := decodeRecords(frameOps, raw); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: err = %v, want ErrProtocol", name, err)
		}
	}
}

func TestDecodeSnapChunkRejectsNonAdds(t *testing.T) {
	for _, op := range []dynamic.Op{{Del: true, ID: 1}, {Watermark: true, ID: 1}} {
		if _, _, err := decodeRecords(frameSnapChunk, dynamic.AppendOp(nil, op)); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%+v in snapshot: err = %v, want ErrProtocol", op, err)
		}
	}
	_, ops, err := decodeRecords(frameSnapChunk, dynamic.AppendOp(nil, dynamic.Op{ID: 1, Doc: "x"}))
	if err != nil || len(ops) != 1 || ops[0].Doc != "x" {
		t.Fatalf("add in snapshot: ops=%v err=%v", ops, err)
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x01
	return out
}
