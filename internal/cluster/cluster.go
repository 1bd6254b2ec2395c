// Package cluster is the coordination layer of the passjoind cluster
// tier: static membership with SIGHUP-style reloads, rendezvous
// (highest-random-weight) document ownership, per-member circuit
// breakers driven by /healthz probes and live request outcomes, a
// deadline-bounded HTTP client with one jittered retry, bounded
// scatter-gather, and the (dist, id) merge that keeps coordinator
// results byte-identical to a single-node daemon over the union corpus.
//
// The package deliberately knows nothing about the passjoin HTTP API
// beyond /healthz: the coordinator handler set in internal/server owns
// the routes, request shapes and partial-response contract, and leans on
// this package for the who (membership, ownership, health) and the how
// (calls, retries, fan-out, merging) of talking to members.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Member is one cluster member: a stable name (its host:port unless the
// URL carried an explicit name=url form) and the base URL of its
// passjoind HTTP API.
type Member struct {
	Name string
	URL  string
}

// Info is a point-in-time public view of one member, as reported by
// Members: identity plus breaker-derived health.
type Info struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Up reports whether the member's circuit breaker is closed — the
	// member answered its last probe or request and receives traffic.
	Up bool `json:"up"`
}

// Config bounds the cluster client; zero values select the defaults.
type Config struct {
	// Timeout is the per-member deadline of one request attempt (and the
	// response-header deadline of streaming calls). Default 2s.
	Timeout time.Duration
	// ProbeInterval is the cadence of background /healthz probes against
	// healthy members (unhealthy members are re-probed on the breaker's
	// exponential backoff instead). Default 5s.
	ProbeInterval time.Duration
	// BackoffMin/BackoffMax bound the breaker's exponential backoff
	// between probe attempts against an unhealthy member. Defaults
	// 250ms and 8s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Logger receives member up/down transitions. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * time.Second
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	return c
}

// member is the internal per-member state: identity plus the breaker,
// which survives membership reloads keyed by name.
type member struct {
	Member
	br *breaker
}

// memberSet is one immutable membership generation, swapped atomically
// on reload so queries never observe a half-updated member list.
type memberSet struct {
	members []*member          // sorted by name
	byName  map[string]*member // same members, keyed
}

// Cluster is the coordinator's view of the member fleet. All methods
// are safe for concurrent use; SetMembers may race queries freely.
type Cluster struct {
	cfg    Config
	logger *slog.Logger
	client *http.Client
	view   atomic.Pointer[memberSet]

	// reqMu guards the request-outcome counters behind RequestCounts —
	// cold path, one lock per completed member request attempt.
	reqMu    sync.Mutex
	requests map[RequestKey]int64
}

// RequestKey labels one member-request counter series: which member,
// which coordinator route the request served, and the outcome ("200",
// "404", ... or "error" for transport failures).
type RequestKey struct {
	Member string
	Route  string
	Code   string
}

// New builds a cluster over the given members. At least one member is
// required; names and URLs must be unique.
func New(members []Member, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	c := &Cluster{
		cfg:    cfg,
		logger: logger,
		client: &http.Client{
			Transport: &http.Transport{
				// The per-attempt context deadline bounds buffered calls
				// end to end; streaming calls (joins) may legitimately
				// outlive any fixed deadline, so for them only the time to
				// response headers is bounded.
				ResponseHeaderTimeout: cfg.Timeout,
				MaxIdleConnsPerHost:   16,
			},
		},
		requests: map[RequestKey]int64{},
	}
	if err := c.SetMembers(members); err != nil {
		return nil, err
	}
	return c, nil
}

// SetMembers replaces the membership (the SIGHUP reload path). Breakers
// of members that persist across the reload keep their state; new
// members start healthy. The member list must stay non-empty.
func (c *Cluster) SetMembers(members []Member) error {
	if len(members) == 0 {
		return fmt.Errorf("cluster: empty member list")
	}
	old := c.view.Load()
	set := &memberSet{byName: make(map[string]*member, len(members))}
	seenURL := make(map[string]string, len(members))
	for _, m := range members {
		if m.Name == "" || m.URL == "" {
			return fmt.Errorf("cluster: member needs both a name and a URL, got %+v", m)
		}
		if _, dup := set.byName[m.Name]; dup {
			return fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		if prev, dup := seenURL[m.URL]; dup {
			return fmt.Errorf("cluster: members %q and %q share URL %s", prev, m.Name, m.URL)
		}
		seenURL[m.URL] = m.Name
		mem := &member{Member: m}
		if old != nil {
			if prev := old.byName[m.Name]; prev != nil && prev.URL == m.URL {
				mem.br = prev.br
			}
		}
		if mem.br == nil {
			mem.br = newBreaker(c.cfg.BackoffMin, c.cfg.BackoffMax)
		}
		set.members = append(set.members, mem)
		set.byName[m.Name] = mem
	}
	sort.Slice(set.members, func(i, j int) bool { return set.members[i].Name < set.members[j].Name })
	c.view.Store(set)
	return nil
}

// Members returns every member with its current health, sorted by name.
func (c *Cluster) Members() []Info {
	set := c.view.Load()
	out := make([]Info, len(set.members))
	for i, m := range set.members {
		out[i] = Info{Name: m.Name, URL: m.URL, Up: m.br.Up()}
	}
	return out
}

// Owner returns the member owning document id under rendezvous hashing
// over the current membership: the member whose (name, id) hash scores
// highest. Every member agrees on ownership without coordination, and a
// membership change only remaps the documents owned by the members that
// joined or left.
func (c *Cluster) Owner(id int) Info {
	set := c.view.Load()
	m := ownerOf(set.members, int64(id))
	return Info{Name: m.Name, URL: m.URL, Up: m.br.Up()}
}

// Healthy returns the members whose breakers are closed, sorted by name.
func (c *Cluster) Healthy() []Info {
	all := c.Members()
	out := all[:0]
	for _, m := range all {
		if m.Up {
			out = append(out, m)
		}
	}
	return out
}

// lookup resolves a member by name against the current view.
func (c *Cluster) lookup(name string) (*member, error) {
	set := c.view.Load()
	m := set.byName[name]
	if m == nil {
		return nil, fmt.Errorf("cluster: unknown member %q (membership changed?)", name)
	}
	return m, nil
}

// count records one member-request outcome for the metrics exposition.
func (c *Cluster) count(member, route, code string) {
	c.reqMu.Lock()
	c.requests[RequestKey{Member: member, Route: route, Code: code}]++
	c.reqMu.Unlock()
}

// RequestCounts snapshots the per-(member, route, code) request
// counters — the passjoin_cluster_requests_total series.
func (c *Cluster) RequestCounts() map[RequestKey]int64 {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	out := make(map[RequestKey]int64, len(c.requests))
	for k, v := range c.requests {
		out[k] = v
	}
	return out
}

// ParseMembers maps raw member URL flags to Members. Each entry is
// either a plain base URL (the member is named by its host:port) or an
// explicit name=url pair.
func ParseMembers(raw []string) ([]Member, error) {
	out := make([]Member, 0, len(raw))
	for _, r := range raw {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		name := ""
		if at := strings.Index(r, "="); at > 0 && !strings.Contains(r[:at], "/") {
			name, r = r[:at], r[at+1:]
		}
		u, err := url.Parse(r)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: member %q is not an http(s) URL", r)
		}
		if name == "" {
			name = u.Host
		}
		out = append(out, Member{Name: name, URL: strings.TrimRight(r, "/")})
	}
	return out, nil
}
