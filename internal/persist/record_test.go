package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	var blob []byte
	blob = AppendRecord(blob, 1, []byte{0x07}, "vldb")
	blob = AppendRecord(blob, 2, nil, "")
	blob = AppendRecord(blob, 5, bytes.Repeat([]byte{0xAB}, 10_000), "tail")
	want := [][]byte{
		append([]byte{1, 0x07}, "vldb"...),
		{2},
		append(append([]byte{5}, bytes.Repeat([]byte{0xAB}, 10_000)...), "tail"...),
	}
	rr := RecordReader{R: bytes.NewReader(blob)}
	for i, w := range want {
		body, err := rr.Next()
		if err != nil || !bytes.Equal(body, w) {
			t.Fatalf("record %d: %d bytes, err %v; want %d bytes", i, len(body), err, len(w))
		}
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("after the last record: err %v, want io.EOF", err)
	}
}

// TestRecordCorruption is the one table of the envelope's failures, for
// the WAL and the replication stream alike: each is ErrRecord, never a
// body, and never a panic or an allocation over the bound.
func TestRecordCorruption(t *testing.T) {
	rec := AppendRecord(nil, 5, []byte("payload-bytes"), "")
	setLen := func(n uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b, n); return b }
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"torn header":         func(b []byte) []byte { return b[:5] },
		"torn body":           func(b []byte) []byte { return b[:len(b)-3] },
		"zero length":         setLen(0),
		"length over bound":   setLen(MaxRecord + 1),
		"length 4 GiB":        setLen(0xFFFFFFFF),
		"length at the bound": setLen(MaxRecord), // passes the bound, then tears
		"crc flip":            func(b []byte) []byte { b[5] ^= 0x01; return b },
		"body flip":           func(b []byte) []byte { b[10] ^= 0x40; return b },
		"body bytes swapped":  func(b []byte) []byte { b[8], b[9] = b[9], b[8]; return b },
	} {
		b := mutate(append([]byte(nil), rec...))
		rr := RecordReader{R: bytes.NewReader(b)}
		if body, err := rr.Next(); !errors.Is(err, ErrRecord) || body != nil {
			t.Errorf("%s: body %q, err %v; want ErrRecord", name, body, err)
		}
	}
	if _, err := (&RecordReader{R: bytes.NewReader(nil)}).Next(); err != io.EOF {
		t.Errorf("clean EOF: err %v, want io.EOF", err)
	}
}
