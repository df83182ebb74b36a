package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (p in (0,1]).
// It refuses when fewer than minBeyond samples lie above that rank, so a
// p90 needs at least 100 samples. Samples are sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("perfbench: p%g of %d samples has %d beyond it, need %d", 100*p, n, n-rank, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median is the middle sample (mean of the two middle ones for even n); 0
// for no samples. Samples are sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts op outcomes. An op fails when it errors, returns a wrong
// count, or is refused by admission control; only a wrong count is a
// correctness failure.
type tally struct {
	attempted  int
	errored    int
	refused    int
	mismatched int
}

func (t tally) failed() int { return t.errored + t.refused + t.mismatched }

func (t tally) ok() int { return t.attempted - t.failed() }

// okRatio is the share of attempted ops that completed with the right count.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.ok()) / float64(t.attempted)
}
