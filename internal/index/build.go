package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"passjoin/internal/partition"
)

// BuildFrozen bulk-builds the frozen index of a complete corpus: every
// string of ref with at least tau+1 bytes is indexed under its position in
// ref. It answers every lookup exactly as New + Add (ids ascending) +
// Freeze would, without the map index in between.
//
// The length groups L^i_l of §3.2 share nothing, so the build is one task
// per (length, slot), handed largest-first to workers goroutines (min 1):
// a task hashes its segment of every string of that length, sorts the
// (hash, id) pairs, and writes the postings — ascending by id within a
// list — into its own range of the arena and the rows into its own table.
// Slot i of a group of c strings owns exactly c postings, so every range
// is known before the first task starts and nothing is merged afterwards.
func BuildFrozen(ref []string, tau, workers int) (*Frozen, error) {
	return buildFrozen(ref, tau, workers, hash64)
}

// checkArena reports whether postings postings over a corpus of nStrings
// strings fit the frozen form: a posting is an int32 id, and table rows
// address the arena with uint32 offsets.
func checkArena(nStrings int, postings int64) error {
	if int64(nStrings) > math.MaxInt32 {
		return fmt.Errorf("corpus of %d strings exceeds the %d a posting id can name", nStrings, math.MaxInt32)
	}
	if postings > math.MaxUint32 {
		return fmt.Errorf("%d postings exceed the %d a table row can address", postings, uint32(math.MaxUint32))
	}
	return nil
}

// segPost is one posting on its way into the arena: the id of a string and
// the hash of the segment it is being posted under.
type segPost struct {
	hash uint64
	id   int32
}

// buildTask is one (length, slot) of the bulk build.
type buildTask struct {
	g    *FrozenGroup
	slot int     // 0-based
	ids  []int32 // the strings of length g.L, ascending
	base uint32  // arena offset of the slot's len(ids) postings
}

// buildFrozen is BuildFrozen with the segment hash as a parameter, so a
// test can force two distinct segments onto one 64-bit hash.
func buildFrozen(ref []string, tau, workers int, hash func(string) uint64) (*Frozen, error) {
	if tau < 0 {
		return nil, fmt.Errorf("negative threshold %d", tau)
	}
	// Counting sort of the indexable ids by length; ids stay ascending
	// within a length.
	maxLen, indexed := 0, 0
	for _, s := range ref {
		maxLen = max(maxLen, len(s))
		if len(s) > tau {
			indexed++
		}
	}
	if err := checkArena(len(ref), int64(indexed)*int64(tau+1)); err != nil {
		return nil, err
	}
	start := make([]int, maxLen+2) // ids of length l are byLen[start[l]:start[l+1]]
	for _, s := range ref {
		if len(s) > tau {
			start[len(s)+1]++
		}
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	byLen := make([]int32, indexed)
	next := slices.Clone(start)
	for id, s := range ref {
		if len(s) > tau {
			byLen[next[len(s)]] = int32(id)
			next[len(s)]++
		}
	}

	f := &Frozen{
		tau:    tau,
		layout: DefaultLayout,
		arena:  make([]int32, indexed*(tau+1)),
		ref:    ref,
	}
	if indexed > 0 {
		f.groups = make([]*FrozenGroup, maxLen+1)
	}
	var tasks []buildTask
	for l := tau + 1; l <= maxLen; l++ {
		ids := byLen[start[l]:start[l+1]]
		if len(ids) == 0 {
			continue
		}
		g := &FrozenGroup{
			L:      l,
			segs:   partition.Segments(l, tau),
			tables: make([]segTable, tau+1),
			arena:  f.arena,
			ref:    ref,
		}
		f.groups[l] = g
		for slot := 0; slot <= tau; slot++ {
			tasks = append(tasks, buildTask{g: g, slot: slot, ids: ids, base: uint32(start[l]*(tau+1) + slot*len(ids))})
		}
	}
	// Largest first: the long tail of small groups then evens out whatever
	// imbalance the few big ones leave between the workers.
	slices.SortStableFunc(tasks, func(a, b buildTask) int { return cmp.Compare(len(b.ids), len(a.ids)) })

	var claimed atomic.Int64
	work := func() {
		w := slotBuilder{f: f, hash: hash}
		for {
			k := int(claimed.Add(1)) - 1
			if k >= len(tasks) {
				return
			}
			w.build(&tasks[k])
		}
	}
	if workers = min(workers, len(tasks)); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	f.account()
	return f, nil
}

// slotBuilder is one build worker: the index under construction and the
// scratch it reuses from task to task.
type slotBuilder struct {
	f     *Frozen
	hash  func(string) uint64
	posts []segPost
	rows  []frozenRow
}

// build builds one slot: the postings into the task's arena range and the
// table into the group.
func (w *slotBuilder) build(t *buildTask) {
	f, hash := w.f, w.hash
	sg := t.g.segs[t.slot]
	seg := func(id int32) string { return f.ref[id][sg.Pos-1 : sg.Pos-1+sg.Len] }
	posts := w.posts[:0]
	for _, id := range t.ids {
		posts = append(posts, segPost{hash: hash(seg(id)), id: id})
	}
	slices.SortFunc(posts, func(a, b segPost) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	// One row per distinct segment. Postings of one hash are almost always
	// one segment; when they are not (a full 64-bit collision), regroup them
	// by content — stable, so each list stays ascending — and give every
	// segment its own row under the shared hash, which FrozenGroup.List
	// tells apart by confirming against the corpus.
	rows := w.rows[:0]
	for a := 0; a < len(posts); {
		b, uniform := a+1, true
		for ; b < len(posts) && posts[b].hash == posts[a].hash; b++ {
			uniform = uniform && seg(posts[b].id) == seg(posts[a].id)
		}
		if !uniform {
			slices.SortStableFunc(posts[a:b], func(x, y segPost) int { return strings.Compare(seg(x.id), seg(y.id)) })
		}
		for a < b {
			e := b
			if !uniform {
				for e = a + 1; e < b && seg(posts[e].id) == seg(posts[a].id); e++ {
				}
			}
			rows = append(rows, frozenRow{hash: posts[a].hash, start: t.base + uint32(a), count: uint32(e - a)})
			a = e
		}
	}
	out := f.arena[t.base : int(t.base)+len(posts)]
	for k := range posts {
		out[k] = posts[k].id
	}
	table := newSegTable(f.layout, len(rows))
	for _, r := range rows {
		table.insert(r.hash, r.start, r.count) // sized for len(rows): cannot be full
	}
	t.g.tables[t.slot] = table
	w.posts, w.rows = posts, rows
}
