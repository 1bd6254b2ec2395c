package dynamic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"passjoin/internal/persist"
)

// Write-ahead log: the durability layer of the dynamic tier. Every Insert
// and Delete is appended here before it is applied in memory, so a restart
// is base snapshot + WAL tail. Compaction folds the log's effects into a
// fresh snapshot and rewrites the log down to the operations that are not
// yet in any snapshot.
//
// The log is a flat sequence of persist records (length, CRC, body; see
// internal/persist/record.go) whose bodies are
//
//	kind byte (1 = add, 2 = delete, 3 = watermark) | uvarint gid | (add only) doc bytes
//
// The replication stream ships the same records inside its frames.
//
// Replay is prefix-greedy: records are applied in order until the first
// torn or corrupted one, which marks the durable end of the log (a crash
// mid-append leaves exactly such a tail). Opening for writing truncates
// the file back to the last whole record so new appends never interleave
// with garbage.

const (
	walOpAdd       = 1
	walOpDelete    = 2
	walOpWatermark = 3

	// MaxDoc bounds the document of a live write, so that its record fits
	// persist.MaxRecord even nested in a replication ops frame, whose type
	// byte, sequence and count varints and the nested record's header, kind
	// byte and gid varint take at most 39 bytes.
	MaxDoc = persist.MaxRecord - 64
)

// Op is one logical WAL operation: an add, a delete, or a watermark. A
// watermark carries no document — it records the largest global id ever
// observed, so the id allocator cannot regress after a restart even when
// the documents that used the highest ids exist in neither the snapshot
// nor the log (inserted and deleted within one compaction cycle).
type Op struct {
	Del       bool
	Watermark bool
	ID        int64
	Doc       string // empty for deletes and watermarks
}

// WAL is an append-only operation log backed by one file. Methods are not
// safe for concurrent use; the Tier serializes access under its write lock.
//
// The file is opened O_APPEND, so the write offset is always the real end
// of file: rolling back a torn append is a Truncate, never a Seek. When
// the on-disk state can no longer be trusted to match the in-memory
// accounting (a rollback or a log-replacement reopen failed), the WAL
// marks itself failed and refuses further writes — losing acknowledged
// operations silently is the one thing a WAL must never do.
type WAL struct {
	f       *os.File
	path    string
	bytes   int64
	records int64
	fsync   bool
	failed  error

	// Truncated records the ErrWALCorrupt that OpenWAL swallowed when it
	// cut a torn tail off the log. The truncation itself is routine crash
	// recovery — not a failure — but it is exactly the kind of event an
	// operator wants in the logs, so the tier surfaces it at startup.
	Truncated error
}

// OpenWAL opens (creating if needed) the log at path, replays every whole
// record, truncates any torn tail, and returns the replayed operations
// alongside the writable log positioned for appends. With fsync set,
// every Append is flushed to stable storage before it is acknowledged
// (power-loss durability at a per-operation fsync cost); without it the
// log survives process crashes but not kernel crashes or power loss.
func OpenWAL(path string, fsync bool) (*WAL, []Op, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	ops, good, err := ReplayWAL(f)
	if err != nil && !errors.Is(err, ErrWALCorrupt) {
		f.Close()
		return nil, nil, err
	}
	if terr := f.Truncate(good); terr != nil {
		f.Close()
		return nil, nil, terr
	}
	// err is nil or the ErrWALCorrupt of a torn tail.
	return &WAL{f: f, path: path, bytes: good, records: int64(len(ops)), fsync: fsync, Truncated: err}, ops, nil
}

// ErrWALCorrupt marks a log whose tail could not be parsed; everything
// before the reported offset replayed cleanly.
var ErrWALCorrupt = errors.New("dynamic: corrupt WAL tail")

// ReplayWAL decodes records from r until EOF or the first damaged record.
// It returns the decoded operations, the byte offset of the end of the
// last whole record, and nil on a clean EOF or an error wrapping
// ErrWALCorrupt when trailing bytes had to be discarded. It never panics,
// whatever the input.
func ReplayWAL(r io.Reader) ([]Op, int64, error) {
	var ops []Op
	var good int64
	rr := persist.RecordReader{R: r}
	for {
		body, err := rr.Next()
		if err == io.EOF {
			return ops, good, nil
		}
		var op Op
		if err == nil {
			op, err = decodeOp(body)
		}
		if err != nil {
			return ops, good, fmt.Errorf("%w: %v at offset %d", ErrWALCorrupt, err, good)
		}
		ops = append(ops, op)
		good += int64(persist.HeaderLen + len(body))
	}
}

func decodeOp(payload []byte) (Op, error) {
	kind := payload[0]
	gid, n := binary.Uvarint(payload[1:])
	if n <= 0 || gid > 1<<62 {
		return Op{}, errors.New("bad gid varint")
	}
	// Only the canonical (minimal) varint form is valid, so every record
	// has exactly one byte representation — replay-then-re-encode is the
	// identity, which the fuzz target checks.
	var canon [binary.MaxVarintLen64]byte
	if binary.PutUvarint(canon[:], gid) != n {
		return Op{}, errors.New("non-canonical gid varint")
	}
	rest := payload[1+n:]
	switch kind {
	case walOpAdd:
		return Op{ID: int64(gid), Doc: string(rest)}, nil
	case walOpDelete:
		if len(rest) != 0 {
			return Op{}, errors.New("delete record with trailing bytes")
		}
		return Op{Del: true, ID: int64(gid)}, nil
	case walOpWatermark:
		if len(rest) != 0 {
			return Op{}, errors.New("watermark record with trailing bytes")
		}
		return Op{Watermark: true, ID: int64(gid)}, nil
	default:
		return Op{}, fmt.Errorf("unknown op %d", kind)
	}
}

// AppendOp appends op's record to dst: what Append writes, and what a
// replication frame carries.
func AppendOp(dst []byte, op Op) []byte {
	kind := byte(walOpAdd)
	doc := op.Doc
	switch {
	case op.Del:
		kind = walOpDelete
		doc = ""
	case op.Watermark:
		kind = walOpWatermark
		doc = ""
	}
	var gid [binary.MaxVarintLen64]byte
	return persist.AppendRecord(dst, kind, binary.AppendUvarint(gid[:0], uint64(op.ID)), doc)
}

// Append orders op after every prior record (one write syscall, plus an
// fsync when the log was opened with fsync). A failed or torn append is
// rolled back by truncating to the last good offset, so a later Append
// never lands after garbage; if even the rollback fails the WAL marks
// itself failed and every subsequent write is refused loudly.
func (w *WAL) Append(op Op) error {
	if w.failed != nil {
		return fmt.Errorf("dynamic: WAL unusable after earlier failure: %w", w.failed)
	}
	if op.ID < 0 {
		return fmt.Errorf("dynamic: negative WAL gid %d", op.ID)
	}
	rec := AppendOp(nil, op)
	if _, err := w.f.Write(rec); err != nil {
		w.rollbackTo(w.bytes, err)
		return err
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.rollbackTo(w.bytes, err)
			return err
		}
	}
	w.bytes += int64(len(rec))
	w.records++
	return nil
}

// rollbackTo discards everything past off after a failed append. The file
// is O_APPEND, so a successful truncate fully restores the invariant that
// the next write lands at off; a failed truncate leaves torn bytes on
// disk, and the WAL refuses all further writes rather than append after
// them.
func (w *WAL) rollbackTo(off int64, cause error) {
	if err := w.f.Truncate(off); err != nil {
		w.failed = cause
	}
}

// Rewrite atomically replaces the log's contents with ops: the compaction
// step that drops every operation already folded into the base snapshot.
// The new log goes through persist.WriteFileAtomic, so a crash leaves either
// log intact.
func (w *WAL) Rewrite(ops []Op) error {
	if w.failed != nil {
		return fmt.Errorf("dynamic: WAL unusable after earlier failure: %w", w.failed)
	}
	var total int64
	err := persist.WriteFileAtomic(w.path, func(out io.Writer) error {
		var rec []byte
		for _, op := range ops {
			rec = AppendOp(rec[:0], op)
			if _, err := out.Write(rec); err != nil {
				return err
			}
			total += int64(len(rec))
		}
		return nil
	})
	// Once the rename has happened the old descriptor points at the
	// renamed-over (unlinked) inode: anything appended there would vanish.
	// Refuse all further writes unless the new log can be opened in its place.
	lose := func(cause error) error {
		w.f.Close()
		w.f = nil
		w.failed = cause
		return cause
	}
	if err != nil {
		// A directory sync error arrives after the rename: path is unchanged
		// only if it still names the file that is open.
		held, _ := w.f.Stat()
		if now, serr := os.Stat(w.path); serr != nil || !os.SameFile(held, now) {
			return lose(err)
		}
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return lose(err)
	}
	w.f.Close()
	w.f = f
	w.bytes = total
	w.records = int64(len(ops))
	return nil
}

// Bytes returns the current log size; Records the current record count.
func (w *WAL) Bytes() int64   { return w.bytes }
func (w *WAL) Records() int64 { return w.records }

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return w.failed
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
