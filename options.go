package passjoin

import (
	"fmt"
	"log/slog"
	"runtime"

	"passjoin/internal/core"
	"passjoin/internal/metrics"
)

type config struct {
	stats            *Stats
	parallel         int
	shards           int
	compactThreshold int
	walSync          bool
	logger           *slog.Logger
	mutHook          func(Mutation)
}

// Option customizes a join or matcher.
type Option func(*config) error

// Stats holds the work counters of a join, a Matcher or a searcher build
// (WithStats) or of a dynamic index (DynamicSearcher.Stats): substrings
// selected (the paper's Fig. 12), DP cells (Fig. 14), index size (Table 3)
// and more. Its fields are internal/metrics.Stats's, documented there.
type Stats metrics.Stats

// String renders the non-zero counters on one line.
func (s *Stats) String() string { return (*metrics.Stats)(s).String() }

// WithStats attaches an instrumentation sink. A join, a top-k join or a
// searcher build zeroes it and leaves that call's counters in it; for a
// top-k join, those of all its rounds added together (PeakLiveGroups the
// largest of them). A Matcher zeroes it once, at NewMatcher, and adds into
// it on each Insert and Query. The sink must not be read while the call
// that writes it runs. A join that its callback stops early records all of
// the run of equal-length strings (up to 1 024) that held its last pair and
// nothing after it — index footprint included — the same at every
// parallelism and GOMAXPROCS and on every run.
func WithStats(st *Stats) Option {
	return func(c *config) error {
		if st == nil {
			return fmt.Errorf("passjoin: nil stats sink")
		}
		c.stats = st
		return nil
	}
}

// WithParallelism sets the workers of all six join entry points —
// SelfJoin/Join, the streaming SelfJoinEach/JoinEach, and the
// context-aware SelfJoinEachCtx/JoinEachCtx — to min(max(n, 2),
// GOMAXPROCS). The sliding-window scan looks up and verifies runs of
// equal-length strings on those workers — by default, and at n = 1 or 2,
// the caller's goroutine and one helper (none at GOMAXPROCS=1) — and calls
// any callback on the caller's, in the scan's order: the pairs, their order
// and the Stats are the same at every n. Only GOMAXPROCS=1 keeps a join on
// one core.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("passjoin: negative parallelism %d", n)
		}
		c.parallel = n
		return nil
	}
}

// maxShards bounds WithShards: every build worker is a goroutine, so an
// absurd count is a resource bomb rather than a tuning choice.
const maxShards = 1 << 16

// WithShards sets the number of workers that build the one index in
// parallel: for NewSearcher and ReadSearcherFrom its build, for
// NewDynamicSearcher and OpenDynamicSearcher the frozen base at seeding, at
// reopen and at every compaction. Queries and document ids do
// not depend on it, NumShards reports it, and a durable dynamic directory
// may be reopened at any count (see the options table in the package
// documentation for which constructors honor which options). n == 0
// selects GOMAXPROCS; negative or implausibly large counts (> 65536) are
// rejected.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("passjoin: negative shard count %d", n)
		}
		if n > maxShards {
			return fmt.Errorf("passjoin: shard count %d exceeds the maximum %d", n, maxShards)
		}
		c.shards = n
		return nil
	}
}

// WithCompactThreshold sets, for NewDynamicSearcher and
// OpenDynamicSearcher, the number of delta documents (live or tombstoned)
// plus deleted base documents that triggers a background compaction, so
// deletes alone compact too. n == 0 keeps the default,
// dynamic.DefaultCompactThreshold (4096) per WithShards worker; n == -1
// disables automatic compaction, leaving compaction to explicit Compact
// calls. Other negative values are rejected rather than silently treated
// as -1.
func WithCompactThreshold(n int) Option {
	return func(c *config) error {
		if n < -1 {
			return fmt.Errorf("passjoin: invalid compaction threshold %d (use -1 to disable automatic compaction)", n)
		}
		c.compactThreshold = n
		return nil
	}
}

// WithLogger attaches a structured logger to NewDynamicSearcher and
// OpenDynamicSearcher. The dynamic index logs its write-path events
// through it — compaction start/finish with durations and sizes,
// background-compaction failures, WAL torn-tail truncations at startup.
// Without it those events are
// discarded (the counters on Stats still record them). Ignored by the
// static entry points, which have no background activity to report.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) error {
		if l == nil {
			return fmt.Errorf("passjoin: nil logger")
		}
		c.logger = l
		return nil
	}
}

// WithMutationHook attaches a change-data-capture callback to
// NewDynamicSearcher and OpenDynamicSearcher: h observes every mutation
// the searcher applies — Insert, Delete, and replicated operations
// accepted by Apply — after it is durable and visible. The hook runs with
// the index's write lock held, so for any given document id the
// observation order is exactly the apply order (the property a
// replication log needs); keep it fast and never call back into the
// searcher from inside it. Replay during Open and initial corpus seeding
// do not fire the hook — that state is recovered locally or delivered to
// followers by snapshot. Ignored by the static entry points.
func WithMutationHook(h func(Mutation)) Option {
	return func(c *config) error {
		if h == nil {
			return fmt.Errorf("passjoin: nil mutation hook")
		}
		c.mutHook = h
		return nil
	}
}

// WithWALSync makes OpenDynamicSearcher fsync every write-ahead-log
// append before the mutation is acknowledged: durability across power
// loss and kernel crashes, at a per-operation fsync cost. Without it the
// WAL survives process crashes (the kernel holds the writes) but a
// machine-level failure can lose operations acknowledged since the last
// compaction or Close. Ignored by the other entry points.
func WithWALSync() Option {
	return func(c *config) error {
		c.walSync = true
		return nil
	}
}

// workers resolves WithShards: GOMAXPROCS when unset.
func (c config) workers() int {
	if c.shards > 0 {
		return c.shards
	}
	return runtime.GOMAXPROCS(0)
}

func buildConfig(tau int, opts []Option) (config, error) {
	var c config
	if tau < 0 {
		return c, fmt.Errorf("passjoin: threshold must be non-negative, got %d", tau)
	}
	for _, o := range opts {
		if o == nil {
			return c, fmt.Errorf("passjoin: nil option")
		}
		if err := o(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (c config) coreOptions(tau int) core.Options {
	o := core.Options{
		Tau:      tau,
		Parallel: c.parallel,
	}
	if c.stats != nil {
		*c.stats = Stats{}
		o.Stats = (*metrics.Stats)(c.stats)
	}
	return o
}
