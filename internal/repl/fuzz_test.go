package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"passjoin"
	"passjoin/internal/dynamic"
)

// buildStream assembles a syntactically valid replication stream from
// frames — the seed corpus for the fuzzer and a convenient way to craft
// near-valid mutants.
func buildStream(h hello, frames ...[]byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, frameHello, encodeHello(h))
	buf.Write(bytes.Join(frames, nil))
	return buf.Bytes()
}

func frameBytes(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, typ, payload)
	return buf.Bytes()
}

// FuzzReplStream is the differential fuzzer over the follower's frame
// state machine: arbitrary bytes are processed exactly like streamOnce
// processes a response body (hello, optional snapshot, sequence-gated
// ops), applied to a real searcher, and mirrored into a trivial
// map-based model. Invariants:
//
//   - no panic, ever;
//   - every decode failure is ErrProtocol (or a clean io.EOF) — bad
//     bytes must never be misparsed into accepted operations;
//   - the searcher's live corpus equals the model after every input,
//     i.e. whatever prefix survives validation is applied faithfully;
//   - the applied watermark only moves forward, one step at a time.
func FuzzReplStream(f *testing.F) {
	snapDoc := dynamic.AppendOp(nil, dynamic.Op{ID: 0, Doc: "seed"})
	f.Add([]byte{})
	f.Add(buildStream(hello{Proto: protocolVersion, Epoch: 7, Tau: 1, Next: 1, Snap: false}))
	f.Add(buildStream(
		hello{Proto: protocolVersion, Epoch: 7, Tau: 1, Next: 3, Snap: true},
		frameBytes(frameSnapBegin, uvarintBytes(2)),
		frameBytes(frameSnapChunk, snapDoc),
		frameBytes(frameSnapEnd, uvarintBytes(1)),
		frameBytes(frameOps, encodeOps(3, []dynamic.Op{{ID: 1, Doc: "tail"}, {Del: true, ID: 0}})),
		frameBytes(frameHeartbeat, uvarintBytes(5)),
	))
	// Ops that overlap the watermark (duplicate delivery) and a gap.
	f.Add(buildStream(
		hello{Proto: protocolVersion, Epoch: 7, Tau: 1, Next: 1},
		frameBytes(frameOps, encodeOps(1, []dynamic.Op{{ID: 0, Doc: "a"}, {ID: 1, Doc: "b"}})),
		frameBytes(frameOps, encodeOps(2, []dynamic.Op{{ID: 1, Doc: "b"}, {ID: 2, Doc: "c"}})),
		frameBytes(frameOps, encodeOps(9, []dynamic.Op{{ID: 9, Doc: "gap"}})),
	))
	corrupt := buildStream(hello{Proto: protocolVersion, Epoch: 7, Tau: 1, Next: 1},
		frameBytes(frameOps, encodeOps(1, []dynamic.Op{{ID: 0, Doc: "x"}})))
	corrupt[len(corrupt)-2] ^= 0x10
	f.Add(corrupt)
	f.Add(corrupt[:len(corrupt)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := passjoin.NewDynamicSearcher(nil, 1)
		if err != nil {
			t.Fatalf("NewDynamicSearcher: %v", err)
		}
		defer ds.Close()
		model := map[int]string{} // live docs
		seen := map[int]bool{}    // every gid ever inserted (dup-insert guard)

		apply := func(op dynamic.Op) bool {
			if _, err := ds.Apply(passjoin.Mutation{Del: op.Del, ID: int(op.ID), Doc: op.Doc}); err != nil {
				return false // loud apply failure ends the stream, like streamOnce
			}
			id := int(op.ID)
			if op.Del {
				delete(model, id)
			} else if !seen[id] {
				seen[id] = true
				model[id] = op.Doc
			}
			return true
		}

		requireProto := func(err error) {
			if err == nil || errors.Is(err, ErrProtocol) || err == io.EOF {
				return
			}
			t.Fatalf("decode failure escaped ErrProtocol: %v", err)
		}

		br := bufio.NewReader(bytes.NewReader(data))
		var applied uint64
	stream:
		for first := true; ; first = false {
			typ, payload, err := readFrame(br)
			if err != nil {
				requireProto(err)
				break
			}
			switch {
			case first:
				if typ != frameHello {
					break stream
				}
				h, err := decodeHello(payload)
				if err != nil {
					requireProto(err)
					break stream
				}
				if h.Proto != protocolVersion {
					break stream
				}
				if h.Snap {
					// Inline snapshot consumption, mirroring installSnapshot.
					typ, payload, err := readFrame(br)
					if err != nil || typ != frameSnapBegin {
						requireProto(err)
						break stream
					}
					cut, err := uvarintPayload(payload)
					if err != nil {
						requireProto(err)
						break stream
					}
					var docs uint64
					for {
						typ, payload, err := readFrame(br)
						if err != nil {
							requireProto(err)
							break stream
						}
						if typ == frameSnapEnd {
							total, err := uvarintPayload(payload)
							if err != nil {
								requireProto(err)
								break stream
							}
							if total != docs {
								break stream
							}
							break
						}
						if typ != frameSnapChunk {
							break stream
						}
						_, ops, err := decodeRecords(frameSnapChunk, payload)
						if err != nil {
							requireProto(err)
							break stream
						}
						for _, op := range ops {
							if !apply(op) {
								break stream
							}
							docs++
						}
					}
					applied = cut
				}
			case typ == frameOps:
				firstSeq, ops, err := decodeRecords(frameOps, payload)
				if err != nil {
					requireProto(err)
					break stream
				}
				if firstSeq > applied+1 {
					break stream // sequence gap: the follower drops the link
				}
				for i, op := range ops {
					seq := firstSeq + uint64(i)
					if seq <= applied {
						continue // duplicate delivery
					}
					if seq != applied+1 {
						t.Fatalf("watermark jumped from %d to %d", applied, seq)
					}
					if !apply(op) {
						break stream
					}
					applied = seq
				}
			case typ == frameHeartbeat:
				if _, err := uvarintPayload(payload); err != nil {
					requireProto(err)
					break stream
				}
			default:
				break stream
			}
		}

		// Differential check: the searcher's live corpus must equal the
		// model, whatever prefix of the input survived validation.
		got := corpusOf(ds.All())
		if len(got) != len(model) {
			t.Fatalf("searcher holds %d docs, model %d (applied=%d)", len(got), len(model), applied)
		}
		for id, doc := range model {
			if g, ok := got[id]; !ok || g != doc {
				t.Fatalf("id %d: searcher %q (present=%v), model %q", id, g, ok, doc)
			}
		}
	})
}

// uvarintBytes is the test-side inverse of uvarintPayload.
func uvarintBytes(v uint64) []byte {
	return binary.AppendUvarint(nil, v)
}
