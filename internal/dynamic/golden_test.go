package dynamic

import (
	"bytes"
	"encoding/hex"
	"testing"

	"passjoin/internal/persist"
)

// TestGoldenBytes pins what every on-disk writer emits, byte for byte,
// against hex captured from the build before the record codec moved into
// internal/persist: a WAL record of each kind, a PJIX v3 file and a PJDT
// base snapshot. Any change here is a format change.
func TestGoldenBytes(t *testing.T) {
	corpus := []string{"", "vldb", "pass join"}
	var pjix, pjdt bytes.Buffer
	if _, err := persist.WriteSnapshot(&pjix, 2, len(corpus), func(i int) string { return corpus[i] }); err != nil {
		t.Fatal(err)
	}
	if err := encodeBaseSnapshot(&pjdt, 2, 301, []int64{0, 7, 300}, corpus); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []byte
		hex  string
	}{
		{"WAL add", AppendOp(nil, Op{ID: 7, Doc: "pass-join"}), "0b000000024f75c40107706173732d6a6f696e"},
		{"WAL delete", AppendOp(nil, Op{Del: true, ID: 300}), "03000000b59f791002ac02"},
		{"WAL watermark", AppendOp(nil, Op{Watermark: true, ID: 1<<62 - 1}), "0a000000fb1df09e03ffffffffffffffff3f"},
		{"PJIX v3", pjix.Bytes(), "504a49580302030004766c64620970617373206a6f696e00d63016b3"},
		{"PJDT", pjdt.Bytes(), "504a445401ad02030006a4023067f00b504a49580302030004766c64620970617373206a6f696e00d63016b3"},
	} {
		if got := hex.EncodeToString(c.got); got != c.hex {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.hex)
		}
	}
}
