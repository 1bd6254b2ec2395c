// Package repl replicates a primary passjoin.DynamicSearcher to read-only
// followers by shipping its write-ahead-log records over a streaming HTTP
// endpoint — the first beyond-one-process capability of the engine and the
// foundation for a cluster tier.
//
// The moving parts:
//
//   - Log (log.go) is the primary's in-memory replication log: every
//     mutation the index applies is published into it (via the searcher's
//     mutation hook, under the owning shard's lock, so per-document order
//     is exact) and assigned a dense sequence number. The log retains a
//     bounded suffix; followers further behind bootstrap from a snapshot.
//   - Source (source.go) serves GET /repl/stream: a hello frame, an
//     optional corpus snapshot, then the live op stream with heartbeats.
//     A follower presents its (epoch, applied-seq) watermark; the primary
//     resumes mid-log when it can and falls back to a snapshot when it
//     cannot (unknown epoch — e.g. a restarted primary — or a watermark
//     that has fallen out of log retention).
//   - Follower (follower.go) tails the stream into its own durable
//     DynamicSearcher, applying every op idempotently by document id,
//     persisting its watermark, and re-syncing from scratch — loudly,
//     never silently divergent — whenever the stream cannot prove
//     continuity.
//
// A frame is one internal/persist record whose kind is the frame type, and
// the records an ops or snapshot frame carries are the WAL's own
// (dynamic.AppendOp), so one writer and one reader handle every byte on
// the wire and on disk. See docs/REPLICATION.md for the full protocol and
// failure matrix.
package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"passjoin/internal/dynamic"
	"passjoin/internal/persist"
)

// Frame layout: a persist record (uint32-LE length | uint32-LE crc32 |
// body) whose body is the frame type followed by a type-specific payload.
// The op-carrying frames embed whole WAL records, so every byte of state
// that crosses the wire is covered by at least one CRC.
const (
	// frameHello opens every stream: uvarint protocol version, uvarint
	// epoch, uvarint tau, uvarint next sequence number, and one byte
	// telling the follower whether a snapshot follows.
	frameHello = 1
	// frameSnapBegin starts a corpus snapshot: uvarint snapshot sequence
	// number (the stream resumes at seq+1 after the snapshot).
	frameSnapBegin = 2
	// frameSnapChunk carries a batch of snapshot documents as WAL add
	// records (each with its own length and CRC).
	frameSnapChunk = 3
	// frameSnapEnd closes the snapshot: uvarint total document count,
	// checked against the chunks actually received.
	frameSnapEnd = 4
	// frameOps carries live operations: uvarint first sequence number,
	// uvarint count, then count verbatim WAL records with consecutive
	// sequence numbers.
	frameOps = 5
	// frameHeartbeat keeps an idle stream alive and the follower's lag
	// estimate fresh: uvarint next sequence number on the primary.
	frameHeartbeat = 6

	// protocolVersion is bumped on any incompatible frame change; the
	// follower refuses a hello it does not speak.
	protocolVersion = 1

	// batchRecords and batchBytes bound the records of one ops or
	// snapshot-chunk frame; see batch.
	batchRecords = 512
	batchBytes   = 1 << 20
)

// ErrProtocol marks a stream the follower must not keep consuming: a torn
// or checksum-mismatched frame, an implausible length, a malformed
// payload, or a sequence gap. The only safe reaction is to drop the
// connection and reconnect from the last durable watermark — applying
// anything after a framing error could install garbage.
var ErrProtocol = errors.New("repl: protocol violation")

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(persist.AppendRecord(nil, typ, payload, ""))
	return err
}

// readFrame reads one frame. It returns io.EOF only on a clean boundary
// (no bytes of a next frame); anything torn or corrupt is an ErrProtocol.
func readFrame(br *bufio.Reader) (typ byte, payload []byte, err error) {
	rr := persist.RecordReader{R: br}
	body, err := rr.Next()
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return body[0], body[1:], nil
}

// hello is the decoded form of a frameHello payload.
type hello struct {
	Proto uint64
	Epoch uint64
	Tau   uint64
	Next  uint64
	Snap  bool
}

func encodeHello(h hello) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, h.Proto)
	buf = binary.AppendUvarint(buf, h.Epoch)
	buf = binary.AppendUvarint(buf, h.Tau)
	buf = binary.AppendUvarint(buf, h.Next)
	if h.Snap {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func decodeHello(payload []byte) (hello, error) {
	var h hello
	rest := payload
	for _, dst := range []*uint64{&h.Proto, &h.Epoch, &h.Tau, &h.Next} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return hello{}, fmt.Errorf("%w: short hello", ErrProtocol)
		}
		*dst = v
		rest = rest[n:]
	}
	if len(rest) != 1 || rest[0] > 1 {
		return hello{}, fmt.Errorf("%w: malformed hello trailer", ErrProtocol)
	}
	h.Snap = rest[0] == 1
	return h, nil
}

// batch is the one batching rule of the two frames that carry records: it
// takes ops until it holds batchRecords of them, or until the next document
// would carry its documents past batchBytes. A first op always goes in, so
// a document over batchBytes travels alone, in a frame that
// dynamic.MaxDoc keeps within persist.MaxRecord.
type batch struct {
	ops  []dynamic.Op
	size int
}

// add takes op unless the batch is full, and reports whether it did.
func (b *batch) add(op dynamic.Op) bool {
	if len(b.ops) > 0 && (len(b.ops) == batchRecords || b.size+len(op.Doc) > batchBytes) {
		return false
	}
	b.ops = append(b.ops, op)
	b.size += len(op.Doc)
	return true
}

func (b *batch) reset() { b.ops, b.size = b.ops[:0], 0 }

// encodeOps renders an ops frame payload: firstSeq, count, then each op's
// record.
func encodeOps(firstSeq uint64, ops []dynamic.Op) []byte {
	buf := binary.AppendUvarint(nil, firstSeq)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	return appendOps(buf, ops)
}

func appendOps(buf []byte, ops []dynamic.Op) []byte {
	for _, op := range ops {
		buf = dynamic.AppendOp(buf, op)
	}
	return buf
}

// decodeRecords is the one decoder of the frames that carry records: an
// ops frame (firstSeq, count, then count records of adds and deletes) and a
// snapshot chunk (records of adds alone). The records must fill the
// payload, and a watermark travels in neither.
func decodeRecords(typ byte, payload []byte) (firstSeq uint64, ops []dynamic.Op, err error) {
	var count uint64
	if typ == frameOps {
		var n, m int
		firstSeq, n = binary.Uvarint(payload)
		if n > 0 {
			count, m = binary.Uvarint(payload[n:])
		}
		if n <= 0 || m <= 0 {
			return 0, nil, fmt.Errorf("%w: short ops frame", ErrProtocol)
		}
		payload = payload[n+m:]
	}
	// ReplayWAL stops cleanly only at the end of the payload.
	ops, _, err = dynamic.ReplayWAL(bytes.NewReader(payload))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: malformed records in frame type %d: %v", ErrProtocol, typ, err)
	}
	if typ == frameOps && uint64(len(ops)) != count {
		return 0, nil, fmt.Errorf("%w: ops frame declares %d records, carries %d", ErrProtocol, count, len(ops))
	}
	for _, op := range ops {
		if op.Watermark || op.Del && typ != frameOps {
			return 0, nil, fmt.Errorf("%w: record kind not allowed in frame type %d", ErrProtocol, typ)
		}
	}
	return firstSeq, ops, nil
}

// uvarintPayload decodes a payload that is one bare uvarint (snapBegin,
// snapEnd, heartbeat).
func uvarintPayload(payload []byte) (uint64, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, fmt.Errorf("%w: malformed uvarint payload", ErrProtocol)
	}
	return v, nil
}
