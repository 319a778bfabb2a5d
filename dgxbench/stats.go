package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// A p99 over 500 samples rests on 5 observations; it is refused rather
// than reported.
const minBeyond = 10

// minP99Samples is the fewest samples a p99 can be reported from: with
// n samples the nearest rank leaves n - ceil(0.99n) beyond it, which
// first reaches minBeyond at n = 100*minBeyond.
const minP99Samples = 100 * minBeyond

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It refuses a percentile with fewer than minBeyond samples beyond it.
// xs need not be sorted; it is not modified.
func percentile(xs []time.Duration, p float64) (time.Duration, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count). Setup repetitions and per-call replays use it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// windowedP99 groups samples by the window their op was due in (at[i]
// is sample i's due time since the phase start) and returns the median
// of the windows' nearest-rank p99s. Windows too small for a p99 are
// skipped; at least half the windows must have one.
func windowedP99(at, xs []time.Duration, window time.Duration) (time.Duration, error) {
	groups := make(map[int64][]time.Duration)
	for i, t := range at {
		groups[int64(t/window)] = append(groups[int64(t/window)], xs[i])
	}
	var p99s []float64
	for _, g := range groups {
		if p, err := percentile(g, 99); err == nil {
			p99s = append(p99s, float64(p))
		}
	}
	if len(p99s) == 0 || 2*len(p99s) < len(groups) {
		return 0, fmt.Errorf("only %d of %d windows of %v hold enough samples for a p99", len(p99s), len(groups), window)
	}
	return time.Duration(median(p99s)), nil
}
