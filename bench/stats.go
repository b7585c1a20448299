package main

import (
	"math"
	"sort"
	"time"

	"github.com/hpcfail/hpcfail/internal/stats"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted, and whether at
// least minBeyond samples lie above it. The median needs no samples beyond.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return sorted[i], q <= 0.5 || n-1-i >= minBeyond
}

// median is stats.Median, but 0 for an empty sample so a report stays
// valid JSON.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return stats.Median(values)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
