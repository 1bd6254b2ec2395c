// Command passjoind serves a Pass-Join similarity index over
// HTTP/JSON — the online counterpart of the batch passjoin command.
//
//	passjoind -tau 2 -shards 8 -addr :7878 corpus.txt
//	passjoind -tau 2 -save idx.pjix corpus.txt      build + snapshot, then serve
//	passjoind -snapshot idx.pjix                    cold-start from a snapshot
//	passjoind -tau 2 -wal ./data corpus.txt         durable live-update mode
//	passjoind -tau 2 -wal ./data                    restart: snapshot + WAL tail
//	passjoind -tau 2 -dynamic                       volatile live-update mode
//	passjoind -tau 2 -pprof localhost:6060 ...      net/http/pprof side listener
//	passjoind -coordinator -member URL ...          cluster tier over member daemons
//
// The corpus file contains one string per line. One index serves every
// threshold up to its build -tau: the search and batch routes accept a
// per-request tau (validated against the index threshold), so a single
// daemon started with a generous -tau answers the whole spectrum below it
// without holding one index per threshold. With -wal (durable) or
// -dynamic (in-memory) the daemon serves a mutable index: documents can be
// added and deleted over HTTP while queries keep running, a background
// compactor folds the write tier into the frozen base, and with -wal every
// mutation is write-ahead-logged so a restart of the same -wal directory
// recovers the exact live corpus (a corpus argument only seeds a fresh
// directory). Endpoints (see internal/server for the full contract):
//
//	GET    /healthz
//	GET    /v1/search?q=...&k=...&tau=...   (tau <= index tau: per-query threshold)
//	POST   /v1/search   {"query": "...", "k": 5, "tau": 1}
//	POST   /v1/batch    {"queries": ["...", ...], "k": 0, "tau": 1}
//	GET    /v1/topk?q=...&k=...&tau=...
//	POST   /v1/dedup    (text lines in, NDJSON pairs out)
//	POST   /v1/join/self (bulk self join: lines in, NDJSON pair stream out)
//	POST   /v1/join     (bulk R×S join: two line sections split by a blank line)
//	GET    /v1/stats
//	GET    /metrics     (Prometheus text exposition)
//	POST   /v1/docs     {"doc": "..."}        (mutable modes)
//	GET    /v1/docs/{id}                      (mutable modes)
//	DELETE /v1/docs/{id}                      (mutable modes)
//
// Observability: the daemon logs structured records (access log,
// compaction lifecycle, slow queries) via log/slog — -log-format picks
// text or json, -log-level the floor, and -slow-query arms per-query
// phase tracing with threshold logging. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"passjoin"
	"passjoin/internal/cluster"
	"passjoin/internal/dataset"
	"passjoin/internal/persist"
	"passjoin/internal/repl"
	"passjoin/internal/server"
)

func main() {
	addr := flag.String("addr", ":7878", "listen address")
	tau := flag.Int("tau", 2, "edit-distance threshold (ignored with -snapshot)")
	shards := flag.Int("shards", 0, "index build workers, also of every -dynamic/-wal compaction; free to change between -wal restarts (0 = GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "load the index from this snapshot instead of a corpus file")
	save := flag.String("save", "", "write a snapshot of the built index to this path")
	wal := flag.String("wal", "", "serve a durable mutable index rooted at this directory (WAL + base snapshots)")
	walSync := flag.Bool("wal-sync", false, "fsync every WAL append (power-loss durability; slower writes)")
	dynamic := flag.Bool("dynamic", false, "serve a volatile mutable index (live adds/deletes, no persistence)")
	compactEvery := flag.Int("compact-threshold", 0,
		"delta documents plus deleted base documents that trigger background compaction (0 = 4096 x -shards, negative = manual only; mutable modes)")
	maxBatch := flag.Int("max-batch", 0, "max queries per batch request (0 = default)")
	topK := flag.Int("topk", 0, "default k for /v1/topk (0 = default)")
	joinMaxBytes := flag.Int64("join-max-bytes", 0, "max body size for the bulk-join endpoints (0 = default 32 MiB)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; off by default)")
	replListen := flag.String("repl-listen", "",
		"serve the replication stream for read replicas on this side address (e.g. :7879; requires a mutable mode)")
	replicateFrom := flag.String("replicate-from", "",
		"run as a read replica of the primary at this replication URL (e.g. http://primary:7879); requires -wal DIR for the local replica state, ignores -tau (learned from the primary)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level floor: debug, info, warn, error")
	slowQuery := flag.Duration("slow-query", 0,
		"trace every lookup and log those at least this slow with a per-phase breakdown (0 = off; e.g. 50ms)")
	coordinator := flag.Bool("coordinator", false,
		"run as a cluster coordinator: route writes to member daemons by rendezvous hash and scatter-gather reads across them (requires -member or -members)")
	var memberFlags []string
	flag.Func("member", "member daemon base URL (repeatable; NAME=URL names the member; coordinator mode)", func(v string) error {
		memberFlags = append(memberFlags, v)
		return nil
	})
	membersFile := flag.String("members", "",
		"file with one member URL (or NAME=URL) per line; # comments and blanks ignored; reloaded on SIGHUP (coordinator mode)")
	memberTimeout := flag.Duration("member-timeout", 0, "per-member request deadline in coordinator mode (0 = default 2s)")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "passjoind:", err)
		os.Exit(2)
	}

	mf := modeFlags{
		coordinator:   *coordinator,
		members:       len(memberFlags),
		membersFile:   *membersFile,
		wal:           *wal,
		dynamic:       *dynamic,
		snapshot:      *snapshot,
		save:          *save,
		replListen:    *replListen,
		replicateFrom: *replicateFrom,
		corpusArgs:    flag.NArg(),
	}
	if msg := flagProblem(mf); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		if strings.HasPrefix(msg, "usage: passjoind [flags]") {
			flag.Usage()
		}
		os.Exit(2)
	}
	mutable := *wal != "" || *dynamic
	follower := *replicateFrom != ""

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator {
		err := runCoordinator(ctx, coordinatorConfig{
			addr:        *addr,
			members:     memberFlags,
			membersFile: *membersFile,
			timeout:     *memberTimeout,
			maxBatch:    *maxBatch,
			topK:        *topK,
			joinMax:     *joinMaxBytes,
		}, logger)
		if err != nil {
			fatal(logger, err)
		}
		return
	}

	var st passjoin.Stats
	var idx server.Index
	var dyn *passjoin.DynamicSearcher
	var fol *repl.Follower
	var replLog *repl.Log
	var replStatus func() repl.Status
	start := time.Now()
	switch {
	case follower:
		compactEveryVal := *compactEvery
		if compactEveryVal < 0 {
			compactEveryVal = -1
		}
		fol, err = repl.NewFollower(repl.FollowerConfig{
			PrimaryURL:       *replicateFrom,
			Dir:              *wal,
			Shards:           *shards,
			CompactThreshold: compactEveryVal,
			WALSync:          *walSync,
			Logger:           logger,
		})
		if err == nil {
			logger.Info("replica syncing", "primary", *replicateFrom, "dir", *wal)
			err = fol.Start(ctx)
		}
		idx = fol
		replStatus = fol.Status
	case mutable:
		var extra []passjoin.Option
		if *replListen != "" {
			// The log must exist before the searcher so the mutation hook
			// observes every write from the first one on.
			replLog = repl.NewLog(0)
			extra = append(extra, passjoin.WithMutationHook(replLog.Publish))
		}
		dyn, err = buildDynamicIndex(flag.Arg(0), *wal, *tau, *shards, *compactEvery, *walSync, logger, extra...)
		idx = dyn
	default:
		idx, err = buildIndex(flag.Arg(0), *snapshot, *tau, *shards, &st)
	}
	if err != nil {
		fatal(logger, err)
	}
	mode := "static"
	switch {
	case fol != nil:
		mode = "read replica of " + *replicateFrom + " (" + *wal + ")"
	case dyn != nil:
		mode = "volatile dynamic"
		if *wal != "" {
			mode = "durable dynamic (" + *wal + ")"
		}
	}
	logger.Info("index ready",
		"strings", idx.Len(),
		"tau", idx.Tau(),
		"shards", idx.NumShards(),
		"mode", mode,
		"build_time", time.Since(start).Round(time.Millisecond))

	if replLog != nil {
		source := repl.NewSource(replLog, dyn, logger)
		replStatus = source.Status
		ln, err := startRepl(*replListen, source.Handler())
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("replication stream listening", "url", fmt.Sprintf("http://%s/repl/stream", ln.Addr()))
	}

	if *save != "" {
		if err := writeSnapshot(idx.(*passjoin.Searcher), *save); err != nil {
			fatal(logger, err)
		}
		logger.Info("snapshot written", "path", *save)
	}

	if *pprofAddr != "" {
		ln, err := startPprof(*pprofAddr)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	}

	scfg := server.Config{
		MaxBatch:     *maxBatch,
		DefaultTopK:  *topK,
		MaxJoinBytes: *joinMaxBytes,
		Logger:       logger,
		SlowQuery:    *slowQuery,
		ReplStatus:   replStatus,
	}
	if fol != nil {
		scfg.Replica = *replicateFrom
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: server.New(idx, &st, scfg),
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-errc:
		fatal(logger, err)
	case <-ctx.Done():
		logger.Info("shutdown signal received")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(logger, err)
		}
		if dyn != nil {
			if err := dyn.Close(); err != nil {
				fatal(logger, err)
			}
		}
		if fol != nil {
			if err := fol.Close(); err != nil {
				fatal(logger, err)
			}
		}
		logger.Info("shut down")
	}
}

// modeFlags captures the mode flags so the combination rules can be
// validated (and tested) in one place.
type modeFlags struct {
	coordinator   bool
	members       int // count of -member flags
	membersFile   string
	wal           string
	dynamic       bool
	snapshot      string
	save          string
	replListen    string
	replicateFrom string
	corpusArgs    int
}

// flagProblem returns the stderr diagnostic for an illegal flag
// combination, or "" when the flags select exactly one valid mode.
func flagProblem(f modeFlags) string {
	mutable := f.wal != "" || f.dynamic
	follower := f.replicateFrom != ""
	switch {
	case f.coordinator && (mutable || follower || f.replListen != "" || f.snapshot != "" || f.save != "" || f.corpusArgs > 0):
		return "passjoind: -coordinator holds no index of its own and cannot be combined with -wal, -dynamic, -replicate-from, -repl-listen, -snapshot, -save or a corpus file"
	case f.coordinator && f.members == 0 && f.membersFile == "":
		return "passjoind: -coordinator requires at least one -member URL or a -members FILE"
	case !f.coordinator && (f.members > 0 || f.membersFile != ""):
		return "passjoind: -member/-members apply only to -coordinator mode"
	case follower && (f.dynamic || f.snapshot != "" || f.save != "" || f.corpusArgs > 0):
		return "passjoind: -replicate-from runs a read replica and cannot be combined with -dynamic, -snapshot, -save or a corpus file"
	case follower && f.replListen != "":
		return "passjoind: -replicate-from and -repl-listen are mutually exclusive (chained replication is not supported)"
	case follower && f.wal == "":
		return "passjoind: -replicate-from requires -wal DIR for the replica's local state"
	case !follower && f.replListen != "" && !mutable:
		return "passjoind: -repl-listen requires a mutable mode (-wal or -dynamic); a static index has no mutations to replicate"
	case !follower && mutable && f.snapshot != "":
		return "passjoind: -snapshot cannot be combined with -wal/-dynamic"
	case !follower && mutable && f.save != "":
		// Rejecting this after the build would already have seeded the
		// -wal directory as a side effect of a failing command.
		return "passjoind: -save applies to the static mode only (mutable modes persist via -wal)"
	case !follower && mutable && f.corpusArgs > 1:
		return "usage: passjoind -wal DIR [flags] [corpus.txt]"
	case !f.coordinator && !follower && !mutable && (f.snapshot == "") == (f.corpusArgs != 1):
		return "usage: passjoind [flags] corpus.txt  (or passjoind -snapshot idx.pjix, or passjoind -wal DIR)"
	}
	return ""
}

// coordinatorConfig carries the flag values the coordinator mode needs.
type coordinatorConfig struct {
	addr        string
	members     []string // raw -member specs
	membersFile string
	timeout     time.Duration
	maxBatch    int
	topK        int
	joinMax     int64
}

// loadMembers resolves the full member list: explicit -member specs
// first, then the -members file (one URL or NAME=URL per line, blanks
// and # comments skipped).
func loadMembers(cfg coordinatorConfig) ([]cluster.Member, error) {
	specs := append([]string{}, cfg.members...)
	if cfg.membersFile != "" {
		data, err := os.ReadFile(cfg.membersFile)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			specs = append(specs, line)
		}
	}
	ms, err := cluster.ParseMembers(specs)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("no members configured (is %s empty?)", cfg.membersFile)
	}
	return ms, nil
}

// runCoordinator serves the cluster tier: health-probed members, routed
// writes, scatter-gather reads. Blocks until ctx is cancelled.
func runCoordinator(ctx context.Context, cfg coordinatorConfig, logger *slog.Logger) error {
	ms, err := loadMembers(cfg)
	if err != nil {
		return err
	}
	cl, err := cluster.New(ms, cluster.Config{
		Timeout: cfg.timeout,
		Logger:  logger,
	})
	if err != nil {
		return err
	}
	cl.Start(ctx)
	co := server.NewCoordinator(cl, server.Config{
		MaxBatch:     cfg.maxBatch,
		DefaultTopK:  cfg.topK,
		MaxJoinBytes: cfg.joinMax,
		Logger:       logger,
	})
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	logger.Info("coordinator ready", "members", strings.Join(names, ","))

	if cfg.membersFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			defer signal.Stop(hup)
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					ms, err := loadMembers(cfg)
					if err == nil {
						err = cl.SetMembers(ms)
					}
					if err != nil {
						logger.Error("member reload failed; keeping the current set", "error", err)
						continue
					}
					// Ownership moved; the id floor must be re-learned from
					// the new member set before the next routed write.
					co.InvalidateIDFloor()
					logger.Info("members reloaded", "file", cfg.membersFile, "members", len(ms))
				}
			}
		}()
	}

	srv := &http.Server{Addr: cfg.addr, Handler: co}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", cfg.addr, "mode", "coordinator")
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("shutdown signal received")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		logger.Info("shut down")
		return nil
	}
}

// buildLogger maps the -log-format/-log-level flags onto a slog.Logger
// writing to stderr.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (use debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (use text or json)", format)
	}
}

// buildIndex loads the index from a snapshot when snapshotPath is set,
// otherwise builds it from the corpus file.
func buildIndex(corpusPath, snapshotPath string, tau, shards int, st *passjoin.Stats) (*passjoin.Searcher, error) {
	opts := indexOptions(shards, st)
	if snapshotPath != "" {
		f, err := os.Open(snapshotPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return passjoin.ReadSearcherFrom(f, opts...)
	}
	corpus, err := dataset.LoadFile(corpusPath)
	if err != nil {
		return nil, err
	}
	return passjoin.NewSearcher(corpus, tau, opts...)
}

// buildDynamicIndex opens (or seeds) a mutable index. With walDir set the
// index is durable: an existing directory is recovered from base
// snapshots + WAL tails and the corpus file, if given, is ignored with a
// notice. extra options (the replication mutation hook) are appended
// last.
func buildDynamicIndex(corpusPath, walDir string, tau, shards, compactThreshold int, walSync bool, logger *slog.Logger, extra ...passjoin.Option) (*passjoin.DynamicSearcher, error) {
	opts := append(indexOptions(shards, nil), passjoin.WithLogger(logger))
	opts = append(opts, extra...)
	if compactThreshold < 0 {
		compactThreshold = -1 // flag help says "negative = manual only"; the library wants exactly -1
	}
	if compactThreshold != 0 {
		opts = append(opts, passjoin.WithCompactThreshold(compactThreshold))
	}
	if walSync {
		opts = append(opts, passjoin.WithWALSync())
	}
	var corpus []string
	if corpusPath != "" {
		var err error
		if corpus, err = dataset.LoadFile(corpusPath); err != nil {
			return nil, err
		}
	}
	if walDir == "" {
		return passjoin.NewDynamicSearcher(corpus, tau, opts...)
	}
	if corpusPath != "" {
		if _, err := os.Stat(filepath.Join(walDir, "meta.json")); err == nil {
			logger.Warn("wal directory already holds an index; corpus file ignored",
				"dir", walDir, "corpus", corpusPath)
		}
	}
	return passjoin.OpenDynamicSearcher(walDir, corpus, tau, opts...)
}

func indexOptions(shards int, st *passjoin.Stats) []passjoin.Option {
	opts := []passjoin.Option{passjoin.WithShards(shards)}
	if st != nil {
		opts = append(opts, passjoin.WithStats(st))
	}
	return opts
}

// writeSnapshot saves idx at path (-save) without ever leaving less than a
// whole snapshot there: a failed or interrupted write keeps the previous file.
func writeSnapshot(idx io.WriterTo, path string) error {
	return persist.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := idx.WriteTo(w)
		return err
	})
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "error", err)
	os.Exit(1)
}
