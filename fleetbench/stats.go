package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples, refusing
// one with fewer than minBeyond samples beyond it: a p99 of fewer than 1000
// samples is just the maximum under another name.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	rank = max(rank, 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			q*100, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
