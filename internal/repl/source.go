package repl

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"passjoin"
	"passjoin/internal/dynamic"
)

// Status is a point-in-time summary of one end of a replication link,
// surfaced on /v1/stats and as passjoin_repl_* metrics.
type Status struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Primary is the replication URL a follower tails; empty on the
	// primary itself.
	Primary string `json:"primary,omitempty"`
	// Epoch identifies one primary process lifetime; followers resync
	// from a snapshot when it changes.
	Epoch uint64 `json:"epoch"`
	// AppliedOffset is the watermark: the highest sequence number applied
	// (follower) or published (primary).
	AppliedOffset uint64 `json:"applied_offset"`
	// PrimaryOffset is the follower's freshest view of the primary's
	// watermark (from hello, ops and heartbeat frames).
	PrimaryOffset uint64 `json:"primary_offset,omitempty"`
	// Lag is PrimaryOffset - AppliedOffset on a follower (>= 0 once
	// connected); always 0 on the primary.
	Lag uint64 `json:"lag"`
	// Connected reports whether the follower currently holds a live
	// stream; on the primary it is true iff any follower does.
	Connected bool `json:"connected"`
	// Followers counts the streams the primary is currently serving.
	Followers int64 `json:"followers,omitempty"`
	// Resyncs counts the follower's full snapshot bootstraps. Zero is
	// load-bearing (a restart that resumed without a bootstrap), so it is
	// always serialized.
	Resyncs int64 `json:"resyncs"`
	// Reconnects counts the follower's stream re-establishments after the
	// initial connect. Always serialized, like Resyncs.
	Reconnects int64 `json:"reconnects"`
	// LastError is the follower's most recent stream failure, kept for
	// inspection after recovery (Connected tells the current health).
	LastError string `json:"last_error,omitempty"`
}

// SourceIndex is what the Source needs from the primary's index: a
// consistent live-document dump for snapshot cuts and the build
// threshold for the hello frame.
type SourceIndex interface {
	All() func(yield func(int, string) bool)
	Tau() int
	Len() int
}

// dynAdapter adapts *passjoin.DynamicSearcher (whose All returns an
// iter.Seq2) to SourceIndex's plain func form.
type dynAdapter struct{ ds *passjoin.DynamicSearcher }

func (a dynAdapter) All() func(yield func(int, string) bool) {
	return func(yield func(int, string) bool) { a.ds.All()(yield) }
}
func (a dynAdapter) Tau() int { return a.ds.Tau() }
func (a dynAdapter) Len() int { return a.ds.Len() }

// Source serves the primary side of the replication protocol: a streaming
// GET endpoint every follower tails. One Source serves any number of
// concurrent followers; each stream is its own goroutine reading the
// shared Log.
type Source struct {
	log       *Log
	idx       SourceIndex
	epoch     uint64
	heartbeat time.Duration
	logger    *slog.Logger
	followers atomic.Int64
}

// NewSource builds a source streaming idx's mutations from log. The epoch
// is drawn fresh from crypto/rand, so a restarted primary never resumes a
// follower mid-log from a previous lifetime's sequence numbers. logger
// may be nil.
func NewSource(log *Log, ds *passjoin.DynamicSearcher, logger *slog.Logger) *Source {
	return newSource(log, dynAdapter{ds}, logger)
}

func newSource(log *Log, idx SourceIndex, logger *slog.Logger) *Source {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	var b [8]byte
	epoch := uint64(1)
	if _, err := rand.Read(b[:]); err == nil {
		// Clear the top bit so the epoch survives a uvarint round-trip on
		// any decoder that range-checks at 2^63, and never collides with
		// the follower's "no epoch yet" zero.
		epoch = binary.LittleEndian.Uint64(b[:])&(1<<62-1) | 1
	}
	return &Source{log: log, idx: idx, epoch: epoch, heartbeat: 500 * time.Millisecond, logger: logger}
}

// Status reports the primary-side replication figures.
func (s *Source) Status() Status {
	return Status{
		Role:          "primary",
		Epoch:         s.epoch,
		AppliedOffset: s.log.Next() - 1,
		Followers:     s.followers.Load(),
		Connected:     s.followers.Load() > 0,
	}
}

// Handler returns the replication endpoint mux:
//
//	GET /repl/stream?from=SEQ&epoch=EPOCH
//
// It is served on its own listener (passjoind -repl-listen) so the
// replication plane can be firewalled separately from the query plane.
func (s *Source) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/stream", s.handleStream)
	return mux
}

func (s *Source) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 63)
	if err != nil && q.Get("from") != "" {
		http.Error(w, "invalid from", http.StatusBadRequest)
		return
	}
	epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	if err != nil && q.Get("epoch") != "" {
		http.Error(w, "invalid epoch", http.StatusBadRequest)
		return
	}

	s.followers.Add(1)
	defer s.followers.Add(-1)
	ctx := r.Context()
	flusher, _ := w.(http.Flusher)
	flush := func(bw *bufio.Writer) error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriter(w)

	// Resume when the follower proves continuity: it last spoke to this
	// process (same epoch) and its watermark is still within retention
	// and not ahead of us. Anything else gets a snapshot.
	next := s.log.Next()
	resume := epoch == s.epoch && from+1 >= s.log.Start() && from < next
	if err := writeFrame(bw, frameHello, encodeHello(hello{
		Proto: protocolVersion,
		Epoch: s.epoch,
		Tau:   uint64(s.idx.Tau()),
		Next:  next,
		Snap:  !resume,
	})); err != nil {
		return
	}
	if !resume {
		cut, err := s.writeSnapshot(bw)
		if err != nil {
			s.logger.Warn("replication snapshot aborted", "error", err)
			return
		}
		from = cut
	}
	if err := flush(bw); err != nil {
		return
	}
	s.logger.Info("replication stream started",
		"remote", r.RemoteAddr, "from", from, "resume", resume)

	heartbeat := time.NewTimer(s.heartbeat)
	defer heartbeat.Stop()
	var b batch
	for {
		// Capture the wakeup channel before reading: an op published
		// between the read and the wait still closes this channel.
		wake := s.log.Wait()
		ops, ok := s.log.ReadFrom(from+1, batchRecords)
		if !ok {
			// The follower fell out of retention mid-stream (it consumed
			// slower than the primary wrote for long enough to wrap the
			// log). Closing the stream is the loud, safe move: the
			// follower reconnects with its watermark and is handed a
			// snapshot.
			s.logger.Warn("replication stream dropped: follower fell behind log retention",
				"remote", r.RemoteAddr, "behind", from, "retained_from", s.log.Start())
			return
		}
		if len(ops) > 0 {
			b.reset()
			for _, op := range ops {
				if !b.add(op) {
					break
				}
			}
			if err := writeFrame(bw, frameOps, encodeOps(from+1, b.ops)); err != nil {
				return
			}
			from += uint64(len(b.ops))
			if err := flush(bw); err != nil {
				return
			}
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-heartbeat.C:
			if err := writeFrame(bw, frameHeartbeat, binary.AppendUvarint(nil, s.log.Next())); err != nil {
				return
			}
			if err := flush(bw); err != nil {
				return
			}
		}
		heartbeat.Reset(s.heartbeat)
	}
}

// writeSnapshot streams a bootstrap snapshot of the primary's live corpus
// and returns the cut sequence number: every op numbered <= cut is
// reflected in the snapshot. The cut is read before the corpus, and ops
// are published (under the same shard locks that apply them) only after
// they are applied, so an op that raced the capture can only be
// over-included — and re-applying it from the stream is idempotent by
// document id on the follower.
func (s *Source) writeSnapshot(bw *bufio.Writer) (uint64, error) {
	cut := s.log.Next() - 1
	if err := writeFrame(bw, frameSnapBegin, binary.AppendUvarint(nil, cut)); err != nil {
		return 0, err
	}
	var b batch
	var chunk []byte
	var total uint64
	flushChunk := func() error {
		chunk = appendOps(chunk[:0], b.ops)
		b.reset()
		return writeFrame(bw, frameSnapChunk, chunk)
	}
	var werr error
	s.idx.All()(func(id int, doc string) bool {
		op := dynamic.Op{ID: int64(id), Doc: doc}
		if !b.add(op) {
			if werr = flushChunk(); werr != nil {
				return false
			}
			b.add(op)
		}
		total++
		return true
	})
	if werr != nil {
		return 0, werr
	}
	if len(b.ops) > 0 {
		if err := flushChunk(); err != nil {
			return 0, err
		}
	}
	if err := writeFrame(bw, frameSnapEnd, binary.AppendUvarint(nil, total)); err != nil {
		return 0, err
	}
	s.logger.Info("replication snapshot shipped", "docs", total, "cut", cut)
	return cut, nil
}

// SetHeartbeat overrides the idle-stream heartbeat interval (tests).
func (s *Source) SetHeartbeat(d time.Duration) {
	if d > 0 {
		s.heartbeat = d
	}
}
