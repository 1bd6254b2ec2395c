package repl

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"passjoin/internal/dynamic"
)

// TestGoldenFrames pins each of the six frame types byte for byte against
// hex captured from the build before frames became internal/persist
// records. Any change here is a wire change, and needs protocolVersion
// bumped.
func TestGoldenFrames(t *testing.T) {
	chunk := appendOps(nil, []dynamic.Op{{ID: 0, Doc: "vldb"}, {ID: 7, Doc: "pass-join"}})
	for _, c := range []struct {
		typ     byte
		payload []byte
		hex     string
	}{
		{frameHello, encodeHello(hello{Proto: protocolVersion, Epoch: 42, Tau: 2, Next: 5, Snap: true}), "060000005104858101012a020501"},
		{frameSnapBegin, binary.AppendUvarint(nil, 4), "0200000064b482740204"},
		{frameSnapChunk, chunk, "22000000fdb95fdd0306000000d5112ad70100766c64620b000000024f75c40107706173732d6a6f696e"},
		{frameSnapEnd, binary.AppendUvarint(nil, 2), "02000000d7b6bbcb0402"},
		{frameOps, encodeOps(5, []dynamic.Op{{ID: 8, Doc: "sigmod"}, {Del: true, ID: 0}}), "1d000000eca2c6dd0505020800000023beb7cd01087369676d6f64020000007d70ef730200"},
		{frameHeartbeat, binary.AppendUvarint(nil, 7), "02000000da20e7890607"},
	} {
		if got := hex.EncodeToString(frameBytes(c.typ, c.payload)); got != c.hex {
			t.Errorf("frame type %d:\n got %s\nwant %s", c.typ, got, c.hex)
		}
	}
}
