package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{Name: "coord.handler", Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		// Two parallel member calls: only the union of their intervals
		// is the coordinator waiting, not the sum.
		{"overlapping children", []span{{Start: 110, End: 160}, {Start: 130, End: 180}}, 30},
		{"nested children", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"identical children", []span{{Start: 110, End: 160}, {Start: 110, End: 160}}, 50},
		{"child sticks out", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"child outside", []span{{Start: 0, End: 50}, {Start: 300, End: 400}}, 100},
		{"child covers parent", []span{{Start: 0, End: 500}}, 0},
		{"unsorted input", []span{{Start: 150, End: 170}, {Start: 110, End: 120}, {Start: 115, End: 155}}, 40},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	if r.now() != 0 {
		t.Error("nil recorder clock must read 0")
	}
	r.add("x", 0, 1, "", "")
	l := r.lane(10)
	l.add("x", 0, 1, "", "")
	l.flush() // none of these may panic
}

func TestRecorderLanesAndJSONL(t *testing.T) {
	r := newRecorder()
	r.add("server.handler", 10, 30, "client.request", "q1")
	l := r.lane(4)
	l.add("client.request", 5, 40, "", "q1")
	l.add("client.request", 41, 60, "", "q2")
	if len(r.spans) != 1 {
		t.Fatal("lane spans must stay private until flushed")
	}
	l.flush()
	if got := len(r.named("client.request")); got != 2 {
		t.Fatalf("named(client.request) = %d spans, want 2", got)
	}
	groups := byReq(r.spans)
	if len(groups["q1"]) != 2 || len(groups["q2"]) != 1 {
		t.Errorf("byReq grouped %v", groups)
	}
	if got := p50Us(durations(r.named("client.request"))); got != 0.019 {
		t.Errorf("p50Us = %v, want 0.019", got)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, s)
	}
	if len(back) != 3 || back[0] != r.spans[0] || back[2] != r.spans[2] {
		t.Errorf("span file round trip: %+v", back)
	}
}
