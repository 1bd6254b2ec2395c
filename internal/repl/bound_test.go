package repl

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"passjoin/internal/dynamic"
	"passjoin/internal/persist"
)

// shipped opens a stream on p with the given query and returns the
// documents it ships — the snapshot's when one comes, otherwise those of
// the ops frames up to want of them — decoded with the follower's own
// readers, so a frame a follower would refuse fails the test.
func shipped(t *testing.T, p *testPrimary, query string, want int) []string {
	t.Helper()
	resp, err := http.Get(p.srv.URL + "/repl/stream?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHello {
		t.Fatalf("hello: type %d, err %v", typ, err)
	}
	h, err := decodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for len(docs) < want || h.Snap {
		typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d documents: %v", len(docs), err)
		}
		switch typ {
		case frameSnapEnd:
			return docs
		case frameOps, frameSnapChunk:
			_, ops, err := decodeRecords(typ, payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				docs = append(docs, op.Doc)
			}
		}
	}
	return docs
}

func requireDocs(t *testing.T, label string, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d documents shipped, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: document %d is %d bytes, want %d", label, i, len(got[i]), len(want[i]))
		}
	}
}

// TestOpsFrameSplitsLargeDocs: two documents that together pass the record
// bound, written while a follower is away, reach it on resume in frames it
// can read. One ops frame used to carry all of a read's 512 operations
// whatever their size, and every follower refused it.
func TestOpsFrameSplitsLargeDocs(t *testing.T) {
	if raceEnabled {
		t.Skip("holds hundreds of MB; CI runs it in a non-race step")
	}
	p := newTestPrimary(t, 2, 1, 0)
	p.insert("before")
	big := strings.Repeat("y", persist.MaxRecord/2+1<<20)
	p.insert(big)
	p.insert(big)
	p.insert("after")
	got := shipped(t, p, fmt.Sprintf("from=1&epoch=%d", p.src.epoch), 3)
	requireDocs(t, "resumed ops", got, big, big, "after")
}

// TestDocBoundShipped: a document of exactly dynamic.MaxDoc bytes is
// accepted and ships whole, in an ops frame and in a snapshot chunk behind
// a smaller document; one byte more is refused at the write. A snapshot
// chunk used to close only after it passed 1 MiB, so the largest document
// landed in a chunk over the record bound.
func TestDocBoundShipped(t *testing.T) {
	if raceEnabled {
		t.Skip("holds hundreds of MB; CI runs it in a non-race step")
	}
	p := newTestPrimary(t, 2, 1, 0)
	small := strings.Repeat("s", 1<<10)
	largest := strings.Repeat("x", dynamic.MaxDoc)
	p.insert(small)
	p.insert(largest)
	if _, err := p.ds.Insert(largest + "x"); err == nil {
		t.Fatalf("a document of MaxDoc+1 bytes was accepted")
	}
	requireDocs(t, "ops", shipped(t, p, fmt.Sprintf("from=0&epoch=%d", p.src.epoch), 2), small, largest)
	requireDocs(t, "snapshot", shipped(t, p, "", 0), small, largest)
}

// TestBatchRule: a frame takes at most batchRecords records and at most
// batchBytes of documents, and always its first, however large.
func TestBatchRule(t *testing.T) {
	for _, c := range []struct {
		docs, size int
		want       []int
	}{
		{1200, 10, []int{512, 512, 176}},
		{5, batchBytes / 2, []int{2, 2, 1}},
		{3, batchBytes + 1, []int{1, 1, 1}},
	} {
		var sizes []int
		var b batch
		for i := 0; i < c.docs; i++ {
			op := dynamic.Op{ID: int64(i), Doc: strings.Repeat("d", c.size)}
			if !b.add(op) {
				sizes = append(sizes, len(b.ops))
				b.reset()
				b.add(op)
			}
		}
		sizes = append(sizes, len(b.ops))
		if fmt.Sprint(sizes) != fmt.Sprint(c.want) {
			t.Errorf("%d documents of %d bytes: frames of %v, want %v", c.docs, c.size, sizes, c.want)
		}
	}
}
