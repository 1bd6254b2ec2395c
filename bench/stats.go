package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be ascending and non-empty: the smallest sample with at least
// p of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median of vals (mean of the two middle values for an even count); 0 for
// an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quietest returns the round least disturbed by the rest of the box: the
// smallest value of a lower-is-better metric, the largest of a
// higher-is-better one. Interference on a shared machine only ever adds
// time, so across repeated sets the best round moves far less than the
// median does (README.md, "Estimator").
func quietest(vals []float64, better string) float64 {
	if better == higherIs {
		return slices.Max(vals)
	}
	return slices.Min(vals)
}

// spread is (max-min)/median over the rounds: how far the rounds of one
// run disagreed.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (slices.Max(vals) - slices.Min(vals)) / m
}

// metricResult is one reported number with the rounds behind it.
type metricResult struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
	Exact  bool      `json:"exact,omitempty"`
}

// summarize reports the quietest of the per-round values of spec, with the
// median, spread and raw rounds alongside.
func summarize(spec metricSpec, rounds []float64) *metricResult {
	return &metricResult{
		Value:  quietest(rounds, spec.Better),
		Unit:   spec.Unit,
		Median: median(rounds),
		Spread: spread(rounds),
		Rounds: rounds,
	}
}

// latencies summarizes one round's per-operation latencies (nanoseconds,
// sorted in place) as p50, p99 and max in microseconds.
func latencies(ns []int64) (p50, p99, worst float64) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	slices.Sort(ns)
	return float64(percentile(ns, 0.50)) / 1e3, float64(percentile(ns, 0.99)) / 1e3, float64(ns[len(ns)-1]) / 1e3
}
