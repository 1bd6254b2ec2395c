package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}, {0.1, 10}, {0.11, 20},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	// 1000 samples: p99 leaves exactly ten beyond it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestLatenciesSortsAndConverts(t *testing.T) {
	p50, p99, mx := latencies([]int64{3000, 1000, 2000, 4000})
	if p50 != 2 || p99 != 4 || mx != 4 {
		t.Errorf("latencies = %v %v %v, want 2 4 4 (us)", p50, p99, mx)
	}
	if a, b, c := latencies(nil); a != 0 || b != 0 || c != 0 {
		t.Error("empty sample must report zeros")
	}
}

func TestQuietestRoundEstimator(t *testing.T) {
	rounds := []float64{12, 10, 15, 11}
	if got := quietest(rounds, lowerIs); got != 10 {
		t.Errorf("quietest lower = %v, want the minimum", got)
	}
	if got := quietest(rounds, higherIs); got != 15 {
		t.Errorf("quietest higher = %v, want the maximum", got)
	}
	if got := median(rounds); got != 11.5 {
		t.Errorf("median = %v, want 11.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := spread(rounds); got != 5/11.5 {
		t.Errorf("spread = %v, want (max-min)/median", got)
	}
	if rounds[0] != 12 {
		t.Error("median must not reorder its input: rounds are kept raw in the result file")
	}

	m := summarize(metricSpec{Name: "x", Unit: "us", Better: lowerIs}, rounds)
	if m.Value != 10 || m.Median != 11.5 || len(m.Rounds) != 4 || m.Unit != "us" {
		t.Errorf("summarize = %+v", m)
	}
	m = summarize(metricSpec{Name: "x", Unit: "1/s", Better: higherIs}, rounds)
	if m.Value != 15 {
		t.Errorf("summarize of a rate = %v, want the best (largest) round", m.Value)
	}
}

func TestTimedRoundsHonoursFixedCount(t *testing.T) {
	h := newHarness(options{rounds: 4, seconds: 0}, nil)
	calls := 0
	if n := h.timedRounds(func(r int) {
		if r != calls {
			t.Errorf("round %d called as %d", calls, r)
		}
		calls++
	}); n != 4 || calls != 4 {
		t.Errorf("timedRounds ran %d/%d rounds, want 4", n, calls)
	}
	// With a time budget already spent it still runs MinRounds.
	h = newHarness(options{seconds: 0}, nil)
	if n := h.timedRounds(func(int) {}); n != h.sz.MinRounds {
		t.Errorf("ran %d rounds on an empty budget, want MinRounds=%d", n, h.sz.MinRounds)
	}
}
