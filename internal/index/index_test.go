package index

import (
	"testing"

	"passjoin/internal/partition"
)

func TestAddAndList(t *testing.T) {
	x := New(3)
	x.Add(0, "vankatesh") // segments va nk at esh
	g := x.Group(9)
	if g == nil {
		t.Fatal("group 9 missing")
	}
	cases := []struct {
		i int
		w string
	}{{1, "va"}, {2, "nk"}, {3, "at"}, {4, "esh"}}
	for _, c := range cases {
		lst := g.List(c.i, c.w)
		if len(lst) != 1 || lst[0] != 0 {
			t.Errorf("List(%d,%q) = %v", c.i, c.w, lst)
		}
	}
	if g.List(1, "xx") != nil {
		t.Error("expected nil list for absent segment")
	}
	if x.Group(10) != nil {
		t.Error("expected nil group for unindexed length")
	}
}

func TestNilGroupList(t *testing.T) {
	var g *Group
	if g.List(1, "ab") != nil {
		t.Error("nil group should return nil list")
	}
}

func TestPostingOrderPreserved(t *testing.T) {
	x := New(1)
	// Same first segment "ab" for several strings of length 4.
	x.Add(5, "abcd")
	x.Add(7, "abce")
	x.Add(9, "abcf")
	lst := x.Group(4).List(1, "ab")
	want := []int32{5, 7, 9}
	if len(lst) != 3 {
		t.Fatalf("got %v", lst)
	}
	for i := range want {
		if lst[i] != want[i] {
			t.Fatalf("posting order %v, want %v", lst, want)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	x := New(2)
	if x.Bytes() != 0 {
		t.Fatalf("empty index bytes = %d", x.Bytes())
	}
	x.Add(0, "abcdef")
	grown := x.Bytes()
	if grown <= 0 {
		t.Fatal("bytes should grow after Add")
	}
	x.Add(1, "abcdef") // same segments: only postings grow
	if x.Bytes() != grown+3*postingBytes {
		t.Errorf("duplicate segments should add only postings: %d -> %d", grown, x.Bytes())
	}
}

func TestSegmentsMatchPartitionPackage(t *testing.T) {
	x := New(3)
	s := "caushik chakrabar"
	x.Add(42, s)
	g := x.Group(len(s))
	for i := 1; i <= 4; i++ {
		w := partition.Split(s, 3)[i-1]
		lst := g.List(i, w)
		if len(lst) != 1 || lst[0] != 42 {
			t.Errorf("segment %d (%q): postings %v", i, w, lst)
		}
	}
}

func TestTau(t *testing.T) {
	if New(4).Tau() != 4 {
		t.Error("Tau mismatch")
	}
}

func TestNewPanicsOnNegativeTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1)
}
