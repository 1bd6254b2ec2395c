package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// ErrDown is returned by Call and Stream when the target member's
// circuit breaker is open: the member is known-unhealthy and no request
// was attempted, so callers can mark the partition missing immediately
// instead of waiting out a deadline.
var ErrDown = errors.New("cluster: member down (circuit open)")

// CallOpts describes one member request.
type CallOpts struct {
	// Route is the coordinator route this call serves — the metrics
	// label of passjoin_cluster_requests_total, never the raw URL.
	Route string
	// Method and Path form the member request; Path carries the query
	// string ("/v1/search?q=x").
	Method string
	Path   string
	// Body is the request body (nil for body-less methods). Buffered so
	// the retry can resend it.
	Body []byte
	// ContentType is set when Body is.
	ContentType string
	// Retry enables one same-member retry with jittered backoff after a
	// transport failure or 5xx. Only safe for idempotent requests — all
	// coordinator calls are (routed writes carry explicit ids and apply
	// idempotently).
	Retry bool
}

// Result is a buffered member response.
type Result struct {
	Status int
	Header http.Header
	Body   []byte
}

// Call performs one buffered request against the named member: breaker
// gate, per-member deadline, at most one jittered retry, outcome
// accounting. The response body is read fully under the deadline.
func (c *Cluster) Call(ctx context.Context, memberName string, o CallOpts) (Result, error) {
	m, err := c.lookup(memberName)
	if err != nil {
		return Result{}, err
	}
	var res Result
	err = c.attempts(ctx, m, o, func(attemptCtx context.Context) (int, error) {
		req, err := c.newRequest(attemptCtx, m, o)
		if err != nil {
			return 0, err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, fmt.Errorf("reading %s response from %s: %w", o.Path, m.Name, err)
		}
		res = Result{Status: resp.StatusCode, Header: resp.Header, Body: body}
		return resp.StatusCode, nil
	})
	return res, err
}

// Stream performs one streaming request against the named member: same
// breaker/retry discipline as Call, but only the response headers are
// awaited under the member deadline — the body is handed to the caller,
// who must Close it. A member that dies mid-stream surfaces as a read
// error on the body, not here.
func (c *Cluster) Stream(ctx context.Context, memberName string, o CallOpts) (*http.Response, error) {
	m, err := c.lookup(memberName)
	if err != nil {
		return nil, err
	}
	var out *http.Response
	err = c.attempts(ctx, m, o, func(context.Context) (int, error) {
		// The stream request deliberately runs under the caller's context,
		// not a deadline-wrapped one: cancelling after attempts returns
		// would kill the body mid-read. Time to response headers is still
		// bounded by the transport's ResponseHeaderTimeout.
		req, err := c.newRequest(ctx, m, o)
		if err != nil {
			return 0, err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			return resp.StatusCode, fmt.Errorf("%s answered %d", m.Name, resp.StatusCode)
		}
		out = resp
		return resp.StatusCode, nil
	})
	return out, err
}

func (c *Cluster) newRequest(ctx context.Context, m *member, o CallOpts) (*http.Request, error) {
	var body io.Reader
	if o.Body != nil {
		body = bytes.NewReader(o.Body)
	}
	req, err := http.NewRequestWithContext(ctx, o.Method, m.URL+o.Path, body)
	if err != nil {
		return nil, err
	}
	if o.ContentType != "" {
		req.Header.Set("Content-Type", o.ContentType)
	}
	if id, _ := ctx.Value(requestIDKey{}).(string); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	return req, nil
}

// requestIDKey is the context key of WithRequestID.
type requestIDKey struct{}

// WithRequestID returns a copy of ctx carrying id: every Call and Stream
// made under it sends id to the member as its X-Request-Id, so one
// request's log lines share an id on every hop.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// attempts runs one request attempt (twice with Retry) against m,
// driving the breaker and the per-request counters. do returns the
// response status when a response arrived; transport failures and 5xx
// statuses count as member failures and are retried, any 2xx-4xx is a
// live member speaking the protocol and is final.
func (c *Cluster) attempts(ctx context.Context, m *member, o CallOpts, do func(context.Context) (int, error)) error {
	if !m.br.Allow() {
		c.count(m.Name, o.Route, "down")
		return fmt.Errorf("%w: %s", ErrDown, m.Name)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
		status, err := do(attemptCtx)
		cancel()
		code := "error"
		if status != 0 {
			code = strconv.Itoa(status)
		}
		c.count(m.Name, o.Route, code)
		if err == nil && status < 500 {
			m.br.Success()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("%s %s on %s answered %d", o.Method, o.Path, m.Name, status)
		}
		lastErr = err
		if opened := m.br.Failure(); opened {
			c.logger.Warn("cluster member down", "member", m.Name, "error", err)
		}
		// One retry, and only while the member is still allowed traffic
		// (the failure above may have opened the breaker) and the caller
		// is still there.
		if !o.Retry || attempt > 0 || ctx.Err() != nil || !m.br.Allow() {
			return lastErr
		}
		select {
		case <-time.After(retryJitter()):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// retryJitter is the pause before the single retry: 10ms plus up to
// 30ms of jitter, so a scatter's retries against a recovering member do
// not land in lockstep.
func retryJitter() time.Duration {
	return 10*time.Millisecond + time.Duration(rand.Int64N(int64(30*time.Millisecond)))
}

// Start launches the background health prober and returns immediately;
// the prober stops when ctx is cancelled. Healthy members are probed
// every ProbeInterval to catch silent deaths between queries; unhealthy
// members are re-probed on their breaker's exponential backoff (the
// probe takes the half-open trial slot), so a recovered member rejoins
// without waiting for query traffic to test it.
func (c *Cluster) Start(ctx context.Context) {
	go func() {
		tick := c.cfg.ProbeInterval / 8
		if min := 50 * time.Millisecond; tick < min {
			tick = min
		}
		lastHealthy := map[string]time.Time{}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				set := c.view.Load()
				for _, m := range set.members {
					if m.br.Up() {
						if now.Sub(lastHealthy[m.Name]) < c.cfg.ProbeInterval {
							continue
						}
						lastHealthy[m.Name] = now
					} else if !m.br.Allow() {
						continue // open, backoff still running
					}
					c.probe(ctx, m)
				}
			}
		}
	}()
}

// Probe checks one member's /healthz immediately, settling its breaker
// (a half-open trial when the member was down). Used by the background
// prober and by tests driving the breaker cycle deterministically.
func (c *Cluster) Probe(ctx context.Context, memberName string) error {
	m, err := c.lookup(memberName)
	if err != nil {
		return err
	}
	return c.probe(ctx, m)
}

func (c *Cluster) probe(ctx context.Context, m *member) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	wasUp := m.br.Up()
	resp, err := c.client.Do(req)
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode < 500 {
			m.br.Success()
			if !wasUp {
				c.logger.Info("cluster member recovered", "member", m.Name)
			}
			return nil
		}
		err = fmt.Errorf("healthz on %s answered %d", m.Name, resp.StatusCode)
	}
	if opened := m.br.Failure(); opened {
		c.logger.Warn("cluster member down", "member", m.Name, "error", err)
	}
	return err
}
