package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers([]string{"http://a:7878", "  http://b:7878/ ", "east=https://c:9999"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "a:7878", URL: "http://a:7878"},
		{Name: "b:7878", URL: "http://b:7878"},
		{Name: "east", URL: "https://c:9999"},
	}
	if len(ms) != len(want) {
		t.Fatalf("got %v", ms)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("member %d: got %+v want %+v", i, ms[i], want[i])
		}
	}
	for _, bad := range []string{"ftp://a", "no-scheme:7878", "http://"} {
		if _, err := ParseMembers([]string{bad}); err == nil {
			t.Errorf("ParseMembers accepted %q", bad)
		}
	}
}

func TestSetMembersValidation(t *testing.T) {
	c, err := New([]Member{{Name: "a", URL: "http://a"}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetMembers(nil); err == nil {
		t.Error("empty member list accepted")
	}
	if err := c.SetMembers([]Member{{Name: "a", URL: "http://a"}, {Name: "a", URL: "http://b"}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := c.SetMembers([]Member{{Name: "a", URL: "http://x"}, {Name: "b", URL: "http://x"}}); err == nil {
		t.Error("duplicate URL accepted")
	}
	// A failed SetMembers must leave the previous view serving.
	if got := c.Members(); len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("view damaged by rejected reload: %v", got)
	}
}

// TestSetMembersPreservesBreakers: reloading a membership file must not
// resurrect a down member in the health view.
func TestSetMembersPreservesBreakers(t *testing.T) {
	c, err := New([]Member{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.lookup("a")
	m.br.Failure()
	m.br.Failure()
	if err := c.SetMembers([]Member{{Name: "a", URL: "http://a"}, {Name: "c", URL: "http://c"}}); err != nil {
		t.Fatal(err)
	}
	for _, info := range c.Members() {
		switch info.Name {
		case "a":
			if info.Up {
				t.Error("reload reset the down member's breaker")
			}
		case "c":
			if !info.Up {
				t.Error("new member did not start healthy")
			}
		}
	}
}

// TestCallRetriesOnce: a member failing exactly once answers on the
// jittered retry; a member failing persistently errors after exactly
// two attempts.
func TestCallRetriesOnce(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			panic(http.ErrAbortHandler) // kill the first attempt's connection
		}
		w.Write([]byte(`ok`))
	}))
	defer ts.Close()
	c, err := New([]Member{{Name: "m", URL: ts.URL}}, Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Call(context.Background(), "m", CallOpts{Route: "/t", Method: http.MethodGet, Path: "/x", Retry: true})
	if err != nil || res.Status != 200 || string(res.Body) != "ok" {
		t.Fatalf("retry did not recover: res=%+v err=%v", res, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("expected 2 attempts, saw %d", got)
	}
	counts := c.RequestCounts()
	if counts[RequestKey{Member: "m", Route: "/t", Code: "error"}] != 1 ||
		counts[RequestKey{Member: "m", Route: "/t", Code: "200"}] != 1 {
		t.Fatalf("request counters wrong: %v", counts)
	}
}

func TestCallOpensBreakerAndFailsFast(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer ts.Close()
	c, err := New([]Member{{Name: "m", URL: ts.URL}}, Config{Timeout: time.Second, BackoffMin: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), "m", CallOpts{Route: "/t", Method: http.MethodGet, Path: "/x", Retry: true}); err == nil {
		t.Fatal("persistent failure did not error")
	}
	// Attempt + retry both failed: breaker open, next call short-circuits.
	if c.Members()[0].Up {
		t.Fatal("breaker still closed after two consecutive failures")
	}
	if _, err := c.Call(context.Background(), "m", CallOpts{Route: "/t", Method: http.MethodGet, Path: "/x"}); err == nil {
		t.Fatal("open breaker did not short-circuit")
	}
	if c.RequestCounts()[RequestKey{Member: "m", Route: "/t", Code: "down"}] != 1 {
		t.Fatalf("down outcome not counted: %v", c.RequestCounts())
	}
}

// TestProbeRecoversMember drives the full breaker cycle over real HTTP:
// member dies, breaker opens, probes fail through the backoff, member
// revives, probe closes the breaker.
func TestProbeRecoversMember(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	c, err := New([]Member{{Name: "m", URL: ts.URL}}, Config{Timeout: time.Second, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	down.Store(true)
	c.Probe(ctx, "m")
	c.Probe(ctx, "m")
	if c.Members()[0].Up {
		t.Fatal("breaker still closed after two failed probes")
	}
	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for !c.Members()[0].Up {
		if time.Now().After(deadline) {
			t.Fatal("member never recovered")
		}
		time.Sleep(2 * time.Millisecond) // let the backoff elapse
		c.Probe(ctx, "m")
	}
}

func TestOwnerUsesCurrentView(t *testing.T) {
	c, err := New([]Member{{Name: "a", URL: "http://a"}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Owner(42).Name; got != "a" {
		t.Fatalf("single-member owner = %q", got)
	}
	if err := c.SetMembers([]Member{{Name: "b", URL: "http://b"}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Owner(42).Name; got != "b" {
		t.Fatalf("owner after reload = %q", got)
	}
}

// Scatter calls all members at once — each call here waits for the next
// member's to finish, so any bound below the member count would deadlock —
// and returns the outcomes in member order though they finish in reverse.
func TestScatterBoundedAndOrdered(t *testing.T) {
	members := []Info{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}, {Name: "e"}}
	index := map[string]int{}
	done := make([]chan struct{}, len(members)+1)
	for i := range done {
		done[i] = make(chan struct{})
		if i < len(members) {
			index[members[i].Name] = i
		}
	}
	close(done[len(members)])
	out := Scatter(context.Background(), members, func(_ context.Context, m Info) (string, error) {
		i := index[m.Name]
		<-done[i+1]
		close(done[i])
		return m.Name + "!", nil
	})
	for i, r := range out {
		if r.Member.Name != members[i].Name || r.Value != members[i].Name+"!" {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}
