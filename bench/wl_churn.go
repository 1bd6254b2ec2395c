package main

import (
	"os"
	"path/filepath"
	"slices"
	"time"

	"passjoin"
	"passjoin/internal/dataset"
	"passjoin/internal/dynamic"
)

// ownDoc is a document a churn client inserted and has not yet deleted.
type ownDoc struct {
	id  int
	doc string
}

// churnClient is one closed-loop client of churn-lib: it searches, inserts
// documents from its own pool and deletes the oldest document it inserted,
// so the corpus stays at its starting size.
type churnClient struct {
	pool     []string // documents to insert, disjoint from every other client's
	nextDoc  int
	fifo     []ownDoc // live documents this client owns, oldest at head
	head     int
	inserts  int
	deletes  int
	search   []int64 // per-op latencies of the current round, ns
	insert   []int64
	maxDelNs int64
}

const churnPrime = 16 // documents each client owns before the first round

// churnState is a durable DynamicSearcher under churn and the harness's
// model of what it must contain.
type churnState struct {
	ds      *passjoin.DynamicSearcher
	dir     string
	clients []*churnClient
	corpus  []string
	queries []string
}

// openChurn opens a fresh durable searcher with product defaults: default
// shards and compaction threshold, WAL on without fsync, the daemon's
// logger.
func (h *harness) openChurn(corpus []string, opts ...passjoin.Option) (*passjoin.DynamicSearcher, string, error) {
	dir, err := h.tempDir("churn")
	if err != nil {
		return nil, "", err
	}
	opts = append(opts, passjoin.WithLogger(daemonLogger()))
	ds, err := passjoin.OpenDynamicSearcher(dir, corpus, searchTau, opts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return ds, dir, nil
}

func (cs *churnState) close() {
	cs.ds.Close()
	os.RemoveAll(cs.dir)
}

// newClients splits the insert pool between the clients and primes each
// with a few documents of its own, so a delete always has a target.
func (h *harness) newClients(res *wlResult, ds *passjoin.DynamicSearcher, pool []string) []*churnClient {
	clients := make([]*churnClient, h.clients)
	per := len(pool) / h.clients
	for g := range clients {
		c := &churnClient{
			pool:   pool[g*per : (g+1)*per],
			fifo:   make([]ownDoc, 0, 1<<16),
			search: make([]int64, 0, h.sz.ChurnOps),
			insert: make([]int64, 0, h.sz.ChurnOps/10),
		}
		for i := 0; i < churnPrime; i++ {
			c.doInsert(res, ds)
		}
		clients[g] = c
	}
	return clients
}

func (c *churnClient) doInsert(res *wlResult, ds *passjoin.DynamicSearcher) ownDoc {
	doc := c.pool[c.nextDoc%len(c.pool)]
	c.nextDoc++
	id, err := ds.Insert(doc)
	if err != nil {
		res.failure("Insert: %v", err)
		return ownDoc{id: -1}
	}
	own := ownDoc{id, doc}
	c.fifo = append(c.fifo, own)
	c.inserts++
	return own
}

func containsID(ms []passjoin.Match, id int) bool {
	return slices.ContainsFunc(ms, func(m passjoin.Match) bool { return m.ID == id })
}

// churnRoundStats is what one churn round measured.
type churnRoundStats struct {
	opsPerS                        float64
	searchP50, searchP99, searchMx float64
	insertP50, insertP99, insertMx float64
	wall                           time.Duration
}

// churnRound runs one round: every client executes its seeded 80/10/10
// schedule back to back. Every 100th insert is read back and every 100th
// delete is checked to have stopped matching; those extra searches are
// outside the timed region (their time is taken off the client's clock).
// lanes, when non-nil, receive a span per operation.
func (h *harness) churnRound(res *wlResult, cs *churnState, r int, rec *recorder, lanes []*lane) churnRoundStats {
	ops := h.sz.ChurnOps
	busy := make([]time.Duration, h.clients)
	h.inParallel(func(g int) {
		c := cs.clients[g]
		sched := opSchedule(h.opts.seed, g, r, ops)
		c.search, c.insert = c.search[:0], c.insert[:0]
		qi := h.queryStart(g, r, len(cs.queries))
		var ln *lane
		if lanes != nil {
			ln = lanes[g]
		}
		var checking time.Duration
		start := time.Now()
		t0 := start
		for _, kind := range sched {
			s := rec.now()
			switch kind {
			case opSearch:
				cs.ds.Search(cs.queries[qi])
				if qi++; qi == len(cs.queries) {
					qi = 0
				}
				t1 := time.Now()
				c.search = append(c.search, int64(t1.Sub(t0)))
				ln.add("dynamic.Search", s, rec.now(), "", "")
				t0 = t1
			case opInsert:
				own := c.doInsert(res, cs.ds)
				t1 := time.Now()
				c.insert = append(c.insert, int64(t1.Sub(t0)))
				ln.add("dynamic.Insert", s, rec.now(), "", "")
				t0 = t1
				if own.id >= 0 && c.inserts%100 == 0 {
					if !containsID(cs.ds.Search(own.doc), own.id) {
						res.failure("inserted document %d %q is not found by a search for itself", own.id, own.doc)
					}
					t0 = time.Now()
					checking += t0.Sub(t1)
				}
			case opDelete:
				own := c.fifo[c.head]
				c.head++
				ok, err := cs.ds.Delete(own.id)
				t1 := time.Now()
				c.maxDelNs = max(c.maxDelNs, int64(t1.Sub(t0)))
				ln.add("dynamic.Delete", s, rec.now(), "", "")
				t0 = t1
				c.deletes++
				if err != nil || !ok {
					res.failure("Delete(%d) = %v, %v", own.id, ok, err)
				} else if c.deletes%100 == 0 {
					if containsID(cs.ds.Search(own.doc), own.id) {
						res.failure("deleted document %d %q still matches", own.id, own.doc)
					}
					t0 = time.Now()
					checking += t0.Sub(t1)
				}
			}
		}
		busy[g] = time.Since(start) - checking
	})
	res.ok(ops * h.clients)
	var st churnRoundStats
	var search, insert []int64
	for g, c := range cs.clients {
		search = append(search, c.search...)
		insert = append(insert, c.insert...)
		st.wall = max(st.wall, busy[g])
	}
	st.opsPerS = float64(ops*h.clients) / st.wall.Seconds()
	st.searchP50, st.searchP99, st.searchMx = latencies(search)
	st.insertP50, st.insertP99, st.insertMx = latencies(insert)
	return st
}

// checkModel requires the searcher to hold exactly the documents the
// harness's model says it does, and to answer a sample of queries exactly
// as brute force over the model does.
func (h *harness) checkModel(res *wlResult, cs *churnState) {
	ids := identityIDs(len(cs.corpus))
	docs := slices.Clone(cs.corpus)
	for _, c := range cs.clients {
		for _, own := range c.fifo[c.head:] {
			ids = append(ids, own.id)
			docs = append(docs, own.doc)
		}
	}
	model := make(map[int]string, len(ids))
	for i, id := range ids {
		model[id] = docs[i]
	}
	n, wrong := 0, 0
	for id, doc := range cs.ds.All() {
		n++
		if model[id] != doc {
			wrong++
		}
	}
	res.check(n == len(model) && wrong == 0,
		"after churn the index holds %d documents (%d of them unexpected), the model %d", n, wrong, len(model))
	h.checkSearchOracle(res, cs.ds, ids, docs, cs.queries, searchTau)
}

// churnInputs generates the corpus, the query set and the insert pool.
func (h *harness) churnInputs(res *wlResult) (corpus, queries, pool []string) {
	corpus, queries = h.searchInputs(res)
	start := time.Now()
	pool = shuffled(dataset.Author(2*h.sz.AuthorN, corpusSeed+1), h.opts.seed)
	res.GenS += time.Since(start).Seconds()
	return corpus, queries, pool
}

// runChurnLib is the end-to-end pass of churn-lib.
//
//	setup_s    OpenDynamicSearcher on a fresh directory seeded with the corpus
//	ops_per_s  completed operations (search+insert+delete) per second at C clients (ISSUE 11: mixed_ops_per_s)
//	op_p50_us  Search latency beside the writes, median                           (search_p50_us)
//	mem_mb     live heap the index holds after the last round and a final Compact (index_live_mb)
//
// Insert latency (ISSUE 11: insert_p50_us, insert_p99_us) has no place in
// a metric set every workload must report; it is kept in the result file's
// info, as the search tail is, and reported by the traced pass as
// churn.insert_p50_us/_p99_us beside tail.p99_us.
func (h *harness) runChurnLib() (*wlResult, error) {
	res := newResult(wlChurnLib)
	corpus, queries, pool := h.churnInputs(res)

	var cs *churnState
	var setups []float64
	var before float64
	for h.setupAgain(setups) {
		if cs != nil {
			cs.close()
			cs = nil
		}
		before = liveHeapMB()
		start := time.Now()
		ds, dir, err := h.openChurn(corpus)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		cs = &churnState{ds: ds, dir: dir, corpus: corpus, queries: queries}
	}
	defer func() { cs.close() }()
	res.setupTimes(setups)
	res.Counters["shards"] = int64(cs.ds.NumShards())
	cs.clients = h.newClients(res, cs.ds, pool)
	res.ok(churnPrime * h.clients)

	h.churnRound(newResult(""), cs, -1, nil, nil) // warm-up, discarded
	compactions := cs.ds.Stats().Compactions
	var ops, p50, p99, ip50, ip99 []float64
	res.Rounds = h.timedRounds(func(r int) {
		st := h.churnRound(res, cs, r, nil, nil)
		ops, p50, p99 = append(ops, st.opsPerS), append(p50, st.searchP50), append(p99, st.searchP99)
		ip50, ip99 = append(ip50, st.insertP50), append(ip99, st.insertP99)
	})
	res.Info["compactions"] = float64(cs.ds.Stats().Compactions - compactions)
	res.rounds(mOpsPerS, ops)
	res.rounds(mOpP50Us, p50)
	res.Info["op_p99_us"] = quietest(p99, lowerIs)
	res.Info["insert_p50_us"] = quietest(ip50, lowerIs)
	res.Info["insert_p99_us"] = quietest(ip99, lowerIs)

	err := cs.ds.Compact()
	res.check(err == nil, "final Compact: %v", err)
	res.check(cs.ds.Err() == nil, "background compaction: %v", cs.ds.Err())
	res.set(endToEndSpecs, mMemMB, liveHeapMB()-before)
	h.checkModel(res, cs)
	return res, nil
}

// traceChurnLib is the per-layer pass of churn-lib: serial rungs of the
// dynamic tier, then one untraced round (compaction and stall counters)
// and one round with a span around every operation.
func (h *harness) traceChurnLib(rec *recorder) (*wlResult, error) {
	res := newResult(wlChurnLib)
	corpus, queries, pool := h.churnInputs(res)
	rq := queries[:min(h.sz.RungQueries, len(queries))]
	reps := h.sz.RungReps
	noCompact := passjoin.WithCompactThreshold(-1)

	// Reads: a clean index, then the same index with a delta of
	// DirtyPerTier documents per shard and as many tombstones.
	vol, err := passjoin.NewDynamicSearcher(corpus, searchTau, noCompact)
	if err != nil {
		return nil, err
	}
	clean, _, _ := serialPass(reps, rq, func(q string) { vol.Search(q) })
	res.layer("dynamic.search_clean_ns", clean)
	dirty := h.sz.DirtyPerTier * vol.NumShards()
	insertNs := bestOf(1, func() {
		for _, doc := range pool[:dirty] {
			if _, err := vol.Insert(doc); err != nil {
				res.failure("Insert: %v", err)
			}
		}
	})
	res.layer("dynamic.insert_ns", float64(insertNs)/float64(dirty))
	deleteNs := bestOf(1, func() {
		for id := 0; id < dirty; id++ {
			if ok, err := vol.Delete(id); err != nil || !ok {
				res.failure("Delete(%d) = %v, %v", id, ok, err)
			}
		}
	})
	res.layer("dynamic.delete_ns", float64(deleteNs)/float64(dirty))
	dirtyNs, _, _ := serialPass(reps, rq, func(q string) { vol.Search(q) })
	res.layer("dynamic.search_dirty_ns", dirtyNs)
	vol.Close()

	// Writes with the WAL on, then an explicit compaction of the full
	// delta they leave behind.
	dur, dir, err := h.openChurn(corpus, noCompact)
	if err != nil {
		return nil, err
	}
	fill := dynamic.DefaultCompactThreshold * dur.NumShards()
	if h.opts.quick {
		fill = dirty
	}
	var compact time.Duration
	for rep := 0; rep < reps; rep++ {
		docs := pool[rep*fill : (rep+1)*fill]
		wal0 := dur.Stats().WALBytes
		walNs := bestOf(1, func() {
			for _, doc := range docs {
				if _, err := dur.Insert(doc); err != nil {
					res.failure("Insert: %v", err)
				}
			}
		})
		if rep == 0 {
			res.layer("dynamic.insert_wal_ns", float64(walNs)/float64(fill))
			res.layer("dynamic.wal_bytes_per_insert", float64(dur.Stats().WALBytes-wal0)/float64(fill))
		}
		d := bestOf(1, func() {
			if err := dur.Compact(); err != nil {
				res.failure("Compact: %v", err)
			}
		})
		if rep == 0 || d < compact {
			compact = d
		}
	}
	res.layer("dynamic.compact_s", compact.Seconds())
	dur.Close()
	os.RemoveAll(dir)

	walDir, err := h.tempDir("wal")
	if err != nil {
		return nil, err
	}
	wal, _, err := dynamic.OpenWAL(filepath.Join(walDir, "rung.wal"), false)
	if err != nil {
		return nil, err
	}
	appendNs := bestOf(1, func() {
		for i, doc := range pool[:fill] {
			if err := wal.Append(dynamic.Op{ID: int64(i), Doc: doc}); err != nil {
				res.failure("WAL.Append: %v", err)
			}
		}
	})
	res.layer("dynamic.wal_append_ns", float64(appendNs)/float64(fill))
	wal.Close()
	os.RemoveAll(walDir)
	res.ok(2*dirty + (reps+1)*fill + reps)

	// The workload itself.
	ds, dir, err := h.openChurn(corpus)
	if err != nil {
		return nil, err
	}
	cs := &churnState{ds: ds, dir: dir, corpus: corpus, queries: queries}
	defer cs.close()
	cs.clients = h.newClients(res, ds, pool)
	h.churnRound(newResult(""), cs, -1, nil, nil)
	c0 := ds.Stats().Compactions
	untraced := h.churnRound(res, cs, 0, nil, nil)
	compactions := float64(ds.Stats().Compactions - c0)
	res.layer("dynamic.compactions", compactions)
	res.layer("dynamic.compact_busy_ratio", compactions*compact.Seconds()/float64(ds.NumShards())/untraced.wall.Seconds())
	res.layer("dynamic.insert_max_us", untraced.insertMx)
	res.layer("dynamic.search_max_us", untraced.searchMx)
	res.layer("churn.insert_p50_us", untraced.insertP50)
	res.layer("churn.insert_p99_us", untraced.insertP99)

	lanes := rec.lanes(h.clients, h.sz.ChurnOps)
	traced := h.churnRound(res, cs, 1, rec, lanes)
	flushLanes(lanes)
	res.layer(mTailP99Us, untraced.searchP99)
	res.layer("trace.overhead_ratio", traced.searchP50/untraced.searchP50)
	res.Info["untraced_p50_us"] = untraced.searchP50
	res.Info["traced_p50_us"] = traced.searchP50
	h.checkModel(res, cs)
	res.Rounds = 1
	return res, nil
}
