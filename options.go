package passjoin

import (
	"fmt"
	"log/slog"
	"runtime"

	"passjoin/internal/core"
	"passjoin/internal/selection"
)

// SelectionMethod selects how probe substrings are chosen (§4 of the
// paper). All methods are exact; they differ only in how many substrings
// they enumerate.
type SelectionMethod int

const (
	// SelectionMultiMatch is the multi-match-aware method (§4.2): the
	// provably minimal substring set, ⌊(τ²−Δ²)/2⌋+τ+1 per string pair of
	// lengths differing by Δ. Default.
	SelectionMultiMatch SelectionMethod = iota
	// SelectionPosition is the position-aware method (§4.1): (τ+1)²
	// substrings.
	SelectionPosition
	// SelectionShift selects start positions within τ of each segment:
	// (τ+1)(2τ+1) substrings.
	SelectionShift
	// SelectionLength selects every substring of matching length:
	// (τ+1)(|s|+1)−l substrings.
	SelectionLength
)

// String returns the name used in the paper's figures.
func (m SelectionMethod) String() string { return m.internal().String() }

func (m SelectionMethod) internal() selection.Method {
	switch m {
	case SelectionMultiMatch:
		return selection.MultiMatch
	case SelectionPosition:
		return selection.Position
	case SelectionShift:
		return selection.Shift
	case SelectionLength:
		return selection.Length
	default:
		return selection.Method(-1)
	}
}

// VerificationMethod selects the candidate verification algorithm (§5).
// All methods are exact; they differ in how much of the DP matrix they
// compute.
type VerificationMethod int

const (
	// VerifySharePrefix is extension-based verification with shared
	// computation on common prefixes — the paper's full method and the
	// fastest. Default.
	VerifySharePrefix VerificationMethod = iota
	// VerifyExtension is extension-based verification without sharing.
	VerifyExtension
	// VerifyLengthAware computes τ+1 cells per DP row with
	// expected-edit-distance early termination.
	VerifyLengthAware
	// VerifyNaive computes 2τ+1 cells per row with prefix pruning, the
	// baseline of prior work.
	VerifyNaive
	// VerifyBitParallel verifies whole candidates with the Myers
	// bit-parallel kernel — an extension beyond the paper, fastest for
	// short strings on modern hardware.
	VerifyBitParallel
)

// String returns the name used in the paper's figures.
func (v VerificationMethod) String() string { return v.internal().String() }

func (v VerificationMethod) internal() core.VerifyKind {
	switch v {
	case VerifySharePrefix:
		return core.VerifyExtensionShared
	case VerifyExtension:
		return core.VerifyExtension
	case VerifyLengthAware:
		return core.VerifyLengthAware
	case VerifyNaive:
		return core.VerifyNaive
	case VerifyBitParallel:
		return core.VerifyMyers
	default:
		return core.VerifyKind(-1)
	}
}

type config struct {
	sel              SelectionMethod
	ver              VerificationMethod
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

// WithSelection sets the substring selection method.
func WithSelection(m SelectionMethod) Option {
	return func(c *config) error {
		if m < SelectionMultiMatch || m > SelectionLength {
			return fmt.Errorf("passjoin: invalid selection method %d", int(m))
		}
		c.sel = m
		return nil
	}
}

// WithVerification sets the verification algorithm.
func WithVerification(v VerificationMethod) Option {
	return func(c *config) error {
		if v < VerifySharePrefix || v > VerifyBitParallel {
			return fmt.Errorf("passjoin: invalid verification method %d", int(v))
		}
		c.ver = v
		return nil
	}
}

// WithStats attaches an instrumentation sink; it is overwritten with this
// run's counters when the join returns.
func WithStats(st *Stats) Option {
	return func(c *config) error {
		if st == nil {
			return fmt.Errorf("passjoin: nil stats sink")
		}
		c.stats = st
		return nil
	}
}

// WithParallelism enables the index-once/probe-parallel mode with n
// workers for all six join entry points: SelfJoin/Join, the streaming
// SelfJoinEach/JoinEach, and the context-aware SelfJoinEachCtx/JoinEachCtx.
// n <= 1 keeps the sequential sliding-window scan, which uses at most two
// goroutines — lookups on a helper, verification and any callback on the
// caller's — and stays on one core at GOMAXPROCS=1.
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
		Tau:          tau,
		Selection:    c.sel.internal(),
		Verification: c.ver.internal(),
		Parallel:     c.parallel,
	}
	if c.stats != nil {
		o.Stats = c.stats.reset()
	}
	return o
}
