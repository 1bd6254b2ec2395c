package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"passjoin"
	"passjoin/internal/persist"
)

const (
	// stateFile is the follower's durable watermark: the (epoch, applied)
	// pair it may safely resume the stream from. Written atomically
	// (tmp + rename) so a crash leaves either the old state or the new.
	stateFile = "repl.json"
	// installingFile marks a snapshot install in progress. Present at
	// startup it means a crash landed between wiping the old state and
	// committing the new watermark — the only safe recovery is to wipe
	// everything and bootstrap from a fresh snapshot.
	installingFile = "repl.installing"

	defaultStateEvery   = 256
	defaultReconnectMin = 100 * time.Millisecond
	defaultReconnectMax = 3 * time.Second
	defaultStallTimeout = 30 * time.Second
)

// replState is the JSON body of the repl.json watermark file.
type replState struct {
	Epoch   uint64 `json:"epoch"`
	Applied uint64 `json:"applied"`
}

// FollowerConfig configures a read replica.
type FollowerConfig struct {
	// PrimaryURL is the primary's replication endpoint base, e.g.
	// "http://primary:7402" (passjoind -repl-listen); /repl/stream is
	// appended. Required.
	PrimaryURL string
	// Dir is the follower's own durable directory: the replicated dynamic
	// index plus the repl.json watermark live here. Required; must not be
	// shared with the primary or another follower.
	Dir string
	// Shards (the build workers of the local index, free to differ from
	// the primary's and from one start to the next), CompactThreshold and
	// WALSync configure the local searcher exactly like the corresponding
	// passjoin options on the primary.
	Shards           int
	CompactThreshold int
	WALSync          bool
	// Logger receives replication lifecycle events; nil discards them.
	Logger *slog.Logger
	// Client issues the streaming request; nil uses a client without an
	// overall timeout (the stream is long-lived — liveness comes from
	// StallTimeout and the primary's heartbeats instead).
	Client *http.Client
	// ReconnectMin and ReconnectMax bound the exponential backoff between
	// connection attempts (defaults 100ms and 3s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// StallTimeout drops a stream that delivers no frame (heartbeats
	// included) for this long, forcing a reconnect — the defense against a
	// primary that vanishes without closing the connection (default 30s).
	StallTimeout time.Duration
	// StateEvery persists the watermark every N applied operations
	// (default 256). The watermark may lag what the searcher's own WAL has
	// made durable; resuming from a stale watermark just re-applies a
	// suffix, which the per-id apply discipline makes a no-op.
	StateEvery int
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = defaultReconnectMin
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = defaultReconnectMax
		if c.ReconnectMax < c.ReconnectMin {
			c.ReconnectMax = c.ReconnectMin
		}
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = defaultStallTimeout
	}
	if c.StateEvery <= 0 {
		c.StateEvery = defaultStateEvery
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Follower is a read replica: it tails a primary's replication stream
// into its own durable DynamicSearcher and serves reads from it. It
// satisfies the server's read-only Index contract (Search, SearchSeq,
// Get, Len, Tau, NumShards) by delegating to the current searcher, which
// is swapped atomically during a full resync — reads keep being answered
// from the previous state until the new one is installed.
//
// A follower is never silently divergent: every frame is CRC-checked,
// sequence numbers must be exactly contiguous, and any violation drops
// the connection and re-proves continuity from the durable watermark —
// falling back to a full snapshot bootstrap when the primary cannot
// resume (restart, retention overrun).
type Follower struct {
	cfg    FollowerConfig
	logger *slog.Logger

	searcher atomic.Pointer[passjoin.DynamicSearcher]

	epoch       atomic.Uint64 // primary epoch the watermark belongs to
	applied     atomic.Uint64 // highest sequence number applied
	primaryNext atomic.Uint64 // primary's next sequence (freshest view)
	// forceSnap is set the moment a snapshot install destroys the old
	// durable state and cleared once the new state commits. In between,
	// the in-memory watermark describes a corpus that no longer exists on
	// disk, so the next connection must demand a fresh snapshot instead of
	// resuming — resuming would replay ops onto the closed old searcher.
	forceSnap  atomic.Bool
	connected  atomic.Bool
	resyncs    atomic.Int64
	reconnects atomic.Int64

	errMu   sync.Mutex
	lastErr error

	readyOnce sync.Once
	ready     chan struct{}
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewFollower validates cfg and builds a follower. Nothing touches the
// network or disk until Start.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.PrimaryURL == "" {
		return nil, errors.New("repl: follower needs a primary URL")
	}
	if _, err := url.Parse(cfg.PrimaryURL); err != nil {
		return nil, fmt.Errorf("repl: invalid primary URL: %w", err)
	}
	if cfg.Dir == "" {
		return nil, errors.New("repl: follower needs a durable directory")
	}
	cfg = cfg.withDefaults()
	return &Follower{
		cfg:    cfg,
		logger: cfg.Logger,
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Start recovers any durable state in Dir, launches the tailing loop, and
// blocks until the follower is ready to serve reads: immediately when a
// previous session's index was recovered from disk (reads are stale until
// the stream catches up), otherwise after the first successful snapshot
// bootstrap. ctx bounds only this readiness wait — cancelling it abandons
// the start; the running follower is stopped by Close.
func (f *Follower) Start(ctx context.Context) error {
	if err := f.recover(); err != nil {
		return err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(runCtx)
	if f.searcher.Load() != nil {
		f.readyOnce.Do(func() { close(f.ready) })
	}
	select {
	case <-f.ready:
		return nil
	case <-ctx.Done():
		cancel()
		<-f.done
		err := ctx.Err()
		if last := f.Status().LastError; last != "" {
			return fmt.Errorf("repl: follower never became ready: %v (last error: %s)", err, last)
		}
		return fmt.Errorf("repl: follower never became ready: %w", err)
	}
}

// recover restores durable follower state from Dir. Three cases:
//
//   - an install marker is present: a crash interrupted a snapshot
//     install, the directory contents are untrusted — wipe and resync;
//   - watermark + index manifest present: reopen the searcher and resume
//     the stream from the watermark;
//   - an empty (or missing) directory: first boot, bootstrap from a
//     snapshot.
//
// A directory with an index but no watermark is refused rather than
// wiped: it is more likely a primary's (or the wrong) directory than a
// follower's, and destroying it would be unrecoverable.
func (f *Follower) recover() error {
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(f.cfg.Dir, installingFile)); err == nil {
		f.logger.Warn("interrupted snapshot install detected; wiping follower state for a full resync",
			"dir", f.cfg.Dir)
		return wipeDir(f.cfg.Dir)
	}
	raw, err := os.ReadFile(filepath.Join(f.cfg.Dir, stateFile))
	if os.IsNotExist(err) {
		if _, merr := os.Stat(filepath.Join(f.cfg.Dir, "meta.json")); merr == nil {
			return fmt.Errorf("repl: %s holds a dynamic index but no %s — refusing to adopt or wipe a directory that was not built by a follower", f.cfg.Dir, stateFile)
		}
		return nil // fresh start
	}
	if err != nil {
		return err
	}
	var st replState
	if err := json.Unmarshal(raw, &st); err != nil {
		f.logger.Warn("corrupt replication watermark; wiping follower state for a full resync",
			"dir", f.cfg.Dir, "error", err)
		return wipeDir(f.cfg.Dir)
	}
	tau, err := readMetaTau(f.cfg.Dir)
	if err != nil {
		f.logger.Warn("unreadable index manifest; wiping follower state for a full resync",
			"dir", f.cfg.Dir, "error", err)
		return wipeDir(f.cfg.Dir)
	}
	ds, err := f.openSearcher(tau)
	if err != nil {
		return fmt.Errorf("repl: reopening follower index: %w", err)
	}
	f.searcher.Store(ds)
	f.epoch.Store(st.Epoch)
	f.applied.Store(st.Applied)
	f.logger.Info("follower state recovered",
		"dir", f.cfg.Dir, "epoch", st.Epoch, "applied", st.Applied, "docs", ds.Len())
	return nil
}

// readMetaTau reads the build threshold out of the dynamic index manifest
// so the searcher can be reopened without the caller knowing tau — the
// follower always learns it from the primary.
func readMetaTau(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return 0, err
	}
	var meta struct {
		Tau int `json:"tau"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return 0, err
	}
	return meta.Tau, nil
}

func (f *Follower) openSearcher(tau int) (*passjoin.DynamicSearcher, error) {
	opts := []passjoin.Option{}
	if f.cfg.Shards > 0 {
		opts = append(opts, passjoin.WithShards(f.cfg.Shards))
	}
	if f.cfg.CompactThreshold != 0 {
		opts = append(opts, passjoin.WithCompactThreshold(f.cfg.CompactThreshold))
	}
	if f.cfg.WALSync {
		opts = append(opts, passjoin.WithWALSync())
	}
	if f.cfg.Logger != nil {
		opts = append(opts, passjoin.WithLogger(f.cfg.Logger))
	}
	return passjoin.OpenDynamicSearcher(f.cfg.Dir, nil, tau, opts...)
}

// wipeDir removes every entry in dir, marker included, leaving an empty
// directory ready for a fresh bootstrap.
func wipeDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// run is the tailing loop: connect, stream until the connection dies or a
// protocol violation forces a drop, persist the watermark, back off,
// reconnect. It exits only when ctx is cancelled (Close).
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.cfg.ReconnectMin
	first := true
	for {
		if ctx.Err() != nil {
			return
		}
		if !first {
			f.reconnects.Add(1)
		}
		streamed, err := f.streamOnce(ctx)
		f.connected.Store(false)
		f.persistStateBestEffort()
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			f.setErr(err)
			f.logger.Warn("replication stream ended", "error", err, "backoff", backoff)
		}
		if streamed {
			backoff = f.cfg.ReconnectMin // the link worked; restart the ladder
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
		first = false
	}
}

// streamOnce runs one connection lifecycle: request the stream from the
// durable watermark, process the hello (installing a snapshot when the
// primary cannot resume), then apply ops until the stream breaks.
// streamed reports whether a hello was successfully processed (used to
// reset the reconnect backoff).
func (f *Follower) streamOnce(ctx context.Context) (streamed bool, err error) {
	// Stall watchdog: every received frame pushes the deadline out; a
	// silent link (no ops, no heartbeats) is cancelled and retried.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(f.cfg.StallTimeout, cancel)
	defer watchdog.Stop()

	from, epoch := f.applied.Load(), f.epoch.Load()
	if f.forceSnap.Load() {
		// A previous install attempt wiped the old state; epoch 0 is never
		// generated by a primary, so advertising it guarantees a snapshot.
		from, epoch = 0, 0
	}
	u := fmt.Sprintf("%s/repl/stream?from=%d&epoch=%d",
		trimSlash(f.cfg.PrimaryURL), from, epoch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("repl: primary answered %s: %s", resp.Status, body)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)

	typ, payload, err := readFrame(br)
	if err != nil {
		return false, fmt.Errorf("reading hello: %w", err)
	}
	watchdog.Reset(f.cfg.StallTimeout)
	if typ != frameHello {
		return false, fmt.Errorf("%w: expected hello, got frame type %d", ErrProtocol, typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return false, err
	}
	if h.Proto != protocolVersion {
		return false, fmt.Errorf("%w: primary speaks protocol %d, follower %d", ErrProtocol, h.Proto, protocolVersion)
	}
	f.primaryNext.Store(h.Next)

	ds := f.searcher.Load()
	if h.Snap {
		ds, err = f.installSnapshot(br, h, watchdog)
		if err != nil {
			return false, err
		}
	} else {
		if ds == nil || h.Epoch != f.epoch.Load() {
			return false, fmt.Errorf("%w: primary resumed a stream the follower cannot continue (epoch %d vs %d)", ErrProtocol, h.Epoch, f.epoch.Load())
		}
		if int(h.Tau) != ds.Tau() {
			return false, fmt.Errorf("%w: primary tau %d does not match follower tau %d within one epoch", ErrProtocol, h.Tau, ds.Tau())
		}
	}
	f.connected.Store(true)
	f.readyOnce.Do(func() { close(f.ready) })
	f.logger.Info("replication stream established",
		"primary", f.cfg.PrimaryURL, "epoch", h.Epoch, "applied", f.applied.Load(),
		"primary_next", h.Next, "snapshot", h.Snap)

	unsaved := 0
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				return true, errors.New("repl: primary closed the stream")
			}
			return true, err
		}
		watchdog.Reset(f.cfg.StallTimeout)
		switch typ {
		case frameOps:
			firstSeq, ops, err := decodeRecords(frameOps, payload)
			if err != nil {
				return true, err
			}
			applied := f.applied.Load()
			if firstSeq > applied+1 {
				return true, fmt.Errorf("%w: sequence gap: ops start at %d, watermark is %d", ErrProtocol, firstSeq, applied)
			}
			for i, op := range ops {
				seq := firstSeq + uint64(i)
				if seq <= applied {
					continue // duplicate delivery of an already-applied prefix
				}
				if _, err := ds.Apply(passjoin.Mutation{Del: op.Del, ID: int(op.ID), Doc: op.Doc}); err != nil {
					return true, fmt.Errorf("repl: applying op %d: %w", seq, err)
				}
				applied = seq
				f.applied.Store(seq)
				unsaved++
			}
			if next := firstSeq + uint64(len(ops)); next > f.primaryNext.Load() {
				f.primaryNext.Store(next)
			}
			if unsaved >= f.cfg.StateEvery {
				if err := f.persistState(); err != nil {
					return true, fmt.Errorf("repl: persisting watermark: %w", err)
				}
				unsaved = 0
			}
		case frameHeartbeat:
			next, err := uvarintPayload(payload)
			if err != nil {
				return true, err
			}
			f.primaryNext.Store(next)
		default:
			return true, fmt.Errorf("%w: unexpected frame type %d mid-stream", ErrProtocol, typ)
		}
	}
}

// installSnapshot bootstraps the local index from the snapshot on the
// stream, replacing whatever state the follower had. Crash safety is the
// install marker: it is created before the old state is destroyed and
// removed only after the new watermark is durable, so a kill at any point
// in between is detected at the next startup and resolved by wiping and
// resyncing — never by trusting half-installed state. Reads keep being
// served from the previous in-memory searcher until the swap at the end.
func (f *Follower) installSnapshot(br *bufio.Reader, h hello, watchdog *time.Timer) (*passjoin.DynamicSearcher, error) {
	typ, payload, err := readFrame(br)
	if err != nil {
		return nil, fmt.Errorf("reading snapshot begin: %w", err)
	}
	watchdog.Reset(f.cfg.StallTimeout)
	if typ != frameSnapBegin {
		return nil, fmt.Errorf("%w: expected snapshot begin, got frame type %d", ErrProtocol, typ)
	}
	cut, err := uvarintPayload(payload)
	if err != nil {
		return nil, err
	}

	// The marker must be on disk before the old state is deleted below.
	marker := filepath.Join(f.cfg.Dir, installingFile)
	err = persist.WriteFileAtomic(marker, func(w io.Writer) error {
		_, err := io.WriteString(w, "snapshot install in progress\n")
		return err
	})
	if err != nil {
		return nil, err
	}
	// Past this point the old durable state is gone: until the new state
	// commits, every reconnect must bootstrap from scratch.
	f.forceSnap.Store(true)
	// The old searcher (if any) keeps serving reads from memory after
	// Close — only its files and write path shut down — so queries never
	// block on a resync. Closing it releases the directory lock the fresh
	// searcher needs.
	if old := f.searcher.Load(); old != nil {
		if err := old.Close(); err != nil {
			f.logger.Warn("closing superseded follower index", "error", err)
		}
	}
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.Name() == installingFile {
			continue
		}
		if err := os.RemoveAll(filepath.Join(f.cfg.Dir, e.Name())); err != nil {
			return nil, err
		}
	}

	ds, err := f.openSearcher(int(h.Tau))
	if err != nil {
		return nil, fmt.Errorf("repl: creating follower index: %w", err)
	}
	// Every path out of here before the final swap must not leak the WAL
	// descriptors and directory lock of the half-built searcher.
	installed := false
	defer func() {
		if !installed {
			ds.Close()
		}
	}()
	var docs uint64
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return nil, fmt.Errorf("reading snapshot: %w", err)
		}
		watchdog.Reset(f.cfg.StallTimeout)
		if typ == frameSnapEnd {
			total, err := uvarintPayload(payload)
			if err != nil {
				return nil, err
			}
			if total != docs {
				return nil, fmt.Errorf("%w: snapshot declared %d documents, delivered %d", ErrProtocol, total, docs)
			}
			break
		}
		if typ != frameSnapChunk {
			return nil, fmt.Errorf("%w: unexpected frame type %d inside snapshot", ErrProtocol, typ)
		}
		_, ops, err := decodeRecords(frameSnapChunk, payload)
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			if _, err := ds.Apply(passjoin.Mutation{ID: int(op.ID), Doc: op.Doc}); err != nil {
				return nil, fmt.Errorf("repl: installing snapshot document %d: %w", op.ID, err)
			}
			docs++
		}
	}
	// Fold the freshly applied corpus into a frozen base and truncate the
	// local WAL: the follower restarts from a compact snapshot instead of
	// replaying the whole bootstrap op by op.
	if err := ds.Compact(); err != nil {
		return nil, fmt.Errorf("repl: compacting installed snapshot: %w", err)
	}
	// Commit order matters: make the new watermark durable first, drop the
	// marker, then swap the searcher, and only then update the in-memory
	// epoch/applied pair. Updating the atomics before the swap would let a
	// concurrent Status (or a failure between the two) pair the new
	// watermark with the old corpus — exactly the silent divergence this
	// subsystem exists to rule out.
	if err := f.persistTo(h.Epoch, cut); err != nil {
		return nil, err
	}
	if err := os.Remove(marker); err != nil {
		return nil, err
	}
	f.searcher.Store(ds)
	f.epoch.Store(h.Epoch)
	f.applied.Store(cut)
	f.forceSnap.Store(false)
	installed = true
	f.resyncs.Add(1)
	f.logger.Info("snapshot installed", "docs", docs, "epoch", h.Epoch, "cut", cut)
	return ds, nil
}

// persistState atomically writes the durable watermark.
func (f *Follower) persistState() error {
	return f.persistTo(f.epoch.Load(), f.applied.Load())
}

// persistTo atomically writes an explicit (epoch, applied) watermark —
// used during snapshot install, where the durable state must commit
// before the in-memory atomics advance.
func (f *Follower) persistTo(epoch, applied uint64) error {
	st := replState{Epoch: epoch, Applied: applied}
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(filepath.Join(f.cfg.Dir, stateFile), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

func (f *Follower) persistStateBestEffort() {
	if f.searcher.Load() == nil {
		return // nothing installed yet; there is no watermark to save
	}
	if f.forceSnap.Load() {
		return // mid-install: the watermark no longer describes the disk state
	}
	if err := f.persistState(); err != nil {
		f.logger.Warn("persisting replication watermark", "error", err)
	}
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	f.lastErr = err
	f.errMu.Unlock()
}

// Status reports the follower-side replication figures.
func (f *Follower) Status() Status {
	applied := f.applied.Load()
	primary := f.primaryNext.Load()
	var lag uint64
	if primary > 0 && primary-1 > applied {
		lag = primary - 1 - applied
	}
	var primaryApplied uint64
	if primary > 0 {
		primaryApplied = primary - 1
	}
	st := Status{
		Role:          "follower",
		Primary:       f.cfg.PrimaryURL,
		Epoch:         f.epoch.Load(),
		AppliedOffset: applied,
		PrimaryOffset: primaryApplied,
		Lag:           lag,
		Connected:     f.connected.Load(),
		Resyncs:       f.resyncs.Load(),
		Reconnects:    f.reconnects.Load(),
	}
	f.errMu.Lock()
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	f.errMu.Unlock()
	return st
}

// Close stops the tailing loop, persists the final watermark, and closes
// the local searcher. The follower must not be used afterwards.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		if f.cancel != nil {
			f.cancel()
			<-f.done
		}
		if ds := f.searcher.Load(); ds != nil {
			f.persistStateBestEffort()
			f.closeErr = ds.Close()
		}
	})
	return f.closeErr
}

// --- read-only Index delegation -------------------------------------
//
// The follower satisfies the server's Index contract by forwarding to
// the current searcher. The pointer is only nil before the first
// bootstrap completes, and Start does not return success until then.

func (f *Follower) cur() *passjoin.DynamicSearcher { return f.searcher.Load() }

// Search answers a query from the replicated index.
func (f *Follower) Search(q string, opts ...passjoin.QueryOption) []passjoin.Match {
	return f.cur().Search(q, opts...)
}

// SearchSeq streams matches from the replicated index.
func (f *Follower) SearchSeq(q string, opts ...passjoin.QueryOption) iter.Seq[passjoin.Match] {
	return f.cur().SearchSeq(q, opts...)
}

// Get returns the live replicated document stored under id.
func (f *Follower) Get(id int) (string, bool) { return f.cur().Get(id) }

// At returns the live replicated document stored under id, or "".
func (f *Follower) At(id int) string { return f.cur().At(id) }

// Len returns the number of live replicated documents.
func (f *Follower) Len() int { return f.cur().Len() }

// Tau returns the replicated index's threshold (learned from the
// primary's hello).
func (f *Follower) Tau() int { return f.cur().Tau() }

// NumShards returns the local searcher's build workers (a follower may
// use a different count than its primary).
func (f *Follower) NumShards() int { return f.cur().NumShards() }

// All iterates over every live replicated document as (id, doc) pairs,
// in no particular order — the divergence-audit hook (compare against the
// primary's All) and the seed for promoting a follower to standalone.
func (f *Follower) All() iter.Seq2[int, string] { return f.cur().All() }

// Stats returns the local searcher's live counters.
func (f *Follower) Stats() passjoin.Stats { return f.cur().Stats() }

// Err reports the local searcher's most recent background-compaction
// failure (stream errors are on Status).
func (f *Follower) Err() error { return f.cur().Err() }

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}
