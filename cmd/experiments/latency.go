package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latency replays a query corpus against a live passjoind and reports
// p50/p90/p99 request latency computed from the daemon's own /metrics
// histogram (passjoin_http_request_duration_seconds{route="/v1/search"}),
// the way a dashboard would — not from client-side timers. The histogram
// is scraped before and after the replay and differenced, so quantiles
// reflect only this run even on a daemon already serving traffic.
func runLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:7878", "base URL of the running passjoind")
	corpusPath := fs.String("corpus", "", "file of query strings, one per line (required)")
	n := fs.Int("n", 1000, "number of requests to replay (cycling through the corpus)")
	c := fs.Int("c", 8, "concurrent clients")
	k := fs.Int("k", 0, "per-query k (0 = all matches)")
	tau := fs.Int("tau", -1, "per-query tau override (-1 = index threshold)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusPath == "" || *n < 1 || *c < 1 {
		fs.Usage()
		return fmt.Errorf("latency: -corpus is required and -n/-c must be positive")
	}
	queries, err := loadLines(*corpusPath)
	if err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("latency: no queries in %s", *corpusPath)
	}

	before, err := scrapeSearchHist(*addr)
	if err != nil {
		return err
	}

	var next, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range *c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				q := url.QueryEscape(queries[i%len(queries)])
				u := fmt.Sprintf("%s/v1/search?q=%s", *addr, q)
				if *k > 0 {
					u += fmt.Sprintf("&k=%d", *k)
				}
				if *tau >= 0 {
					u += fmt.Sprintf("&tau=%d", *tau)
				}
				resp, err := http.Get(u)
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	after, err := scrapeSearchHist(*addr)
	if err != nil {
		return err
	}
	diff := after.sub(before)
	if diff.count() == 0 {
		return fmt.Errorf("latency: /metrics recorded no /v1/search requests for this run")
	}

	fmt.Printf("latency: %d requests (%d errors), %d clients, GOMAXPROCS=%d, %.0f req/s wall\n",
		*n, errs.Load(), *c, procs, float64(*n)/wall.Seconds())
	fmt.Printf("  served:  %.0f requests observed by the daemon histogram\n", diff.count())
	fmt.Printf("  mean:    %s\n", secondsDur(diff.sum/diff.count()))
	for _, q := range []float64{0.50, 0.90, 0.99} {
		fmt.Printf("  p%02.0f:     %s\n", q*100, secondsDur(diff.quantile(q)))
	}
	return nil
}

func loadLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}

// searchHist is the cumulative-bucket view of one scrape of the search
// route's latency histogram.
type searchHist struct {
	les  []float64 // ascending, ends with +Inf
	cum  []float64
	sum  float64
	cnt  float64
	seen bool
}

func (h *searchHist) count() float64 { return h.cnt }

// sub returns the histogram of observations recorded between two scrapes.
func (h *searchHist) sub(prev *searchHist) *searchHist {
	out := &searchHist{les: h.les, sum: h.sum, cnt: h.cnt, cum: append([]float64(nil), h.cum...)}
	if prev == nil || !prev.seen {
		return out
	}
	out.sum -= prev.sum
	out.cnt -= prev.cnt
	for i := range out.cum {
		if i < len(prev.cum) {
			out.cum[i] -= prev.cum[i]
		}
	}
	return out
}

// quantile interpolates like PromQL's histogram_quantile: find the bucket
// the rank lands in, assume uniform distribution inside it.
func (h *searchHist) quantile(q float64) float64 {
	rank := q * h.cnt
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		lo := 0.0
		prev := 0.0
		if i > 0 {
			lo = h.les[i-1]
			prev = h.cum[i-1]
		}
		hi := h.les[i]
		if math.IsInf(hi, 1) {
			return lo // open-ended top bucket: report its lower bound
		}
		inBucket := c - prev
		if inBucket <= 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/inBucket
	}
	return 0
}

// scrapeSearchHist fetches /metrics and extracts the /v1/search latency
// histogram series.
func scrapeSearchHist(addr string) (*searchHist, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: status %d", addr, resp.StatusCode)
	}
	const fam = "passjoin_http_request_duration_seconds"
	type bucket struct{ le, v float64 }
	var buckets []bucket
	h := &searchHist{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, fam) || !strings.Contains(line, `route="/v1/search"`) {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		body, valStr, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		switch name {
		case fam + "_bucket":
			le := math.Inf(1)
			if i := strings.Index(body, `le="`); i >= 0 {
				raw := body[i+4:]
				raw = raw[:strings.IndexByte(raw, '"')]
				if le, err = strconv.ParseFloat(raw, 64); err != nil {
					return nil, fmt.Errorf("parsing le in %q: %w", line, err)
				}
			}
			buckets = append(buckets, bucket{le, v})
			h.seen = true
		case fam + "_sum":
			h.sum = v
		case fam + "_count":
			h.cnt = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		h.les = append(h.les, b.le)
		h.cum = append(h.cum, b.v)
	}
	return h, nil
}

func secondsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}
