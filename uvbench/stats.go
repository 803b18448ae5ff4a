package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles latency_tail_ms may report, from
// the highest down. Reporting a fixed ladder rung (not a percentile
// computed from the sample count) keeps runs with slightly different
// item counts comparable.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond the reported tail
// percentile for it to be an estimate rather than a single outlier.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples: the smallest index whose rank covers p percent of them.
func rankIndex(n int, p float64) int {
	if n <= 0 {
		return -1
	}
	// The epsilon keeps float rounding (99.9/100*10000 is a hair above
	// 9990) from moving the rank up one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest ladder percentile that has at least
// minBeyond of n samples beyond it, and how many lie beyond it. When n is
// too small for any rung, it falls back to the median and reports the
// (short) count, so the caller can print it beside the figure.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - 1 - rankIndex(n, p); b >= minBeyond {
			return p, b
		}
	}
	if n == 0 {
		return 50, 0
	}
	return 50, n - 1 - rankIndex(n, 50)
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// trimmedMean is the mean of xs without the lowest and the highest
// fraction trim of them.
func trimmedMean(xs []float64, trim float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	k := int(trim * float64(len(ys)))
	return mean(ys[k : len(ys)-k])
}

// pct returns 100·num/den, 0 for an empty denominator.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// tally counts attempted items and the ones that count as failed: those
// that errored, were refused, or failed an output check. A refused item
// counts as failed exactly like one whose output is wrong — it also
// misses any latency target.
type tally struct {
	attempted, failed int
}

// add records one attempted item.
func (t *tally) add(failed bool) {
	t.attempted++
	if failed {
		t.failed++
	}
}

// failPct is the failed share of attempted items, in percent.
func (t tally) failPct() float64 { return pct(float64(t.failed), float64(t.attempted)) }
