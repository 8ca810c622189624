package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// and the number of samples that lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to be reported at all.
const minTailSamples = 10

// millis converts latencies to sorted milliseconds.
func millis(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// Throughput windows: the measured phase is cut into equal windows
// holding about requestsPerWindow requests each, at most maxWindows.
const (
	requestsPerWindow = 50
	maxWindows        = 20
)

// windowRates returns, sorted, the requests completed per second in
// each of k equal windows of the phase.
func windowRates(done []time.Duration, wall time.Duration) []float64 {
	k := min(max(len(done)/requestsPerWindow, 1), maxWindows)
	rates := make([]float64, k)
	for _, d := range done {
		rates[min(int(int64(d)*int64(k)/int64(wall)), k-1)]++
	}
	width := wall.Seconds() / float64(k)
	for i := range rates {
		rates[i] /= width
	}
	sort.Float64s(rates)
	return rates
}

// median returns the median of sorted values.
func median(sorted []float64) float64 {
	k := len(sorted)
	if k%2 == 1 {
		return sorted[k/2]
	}
	return (sorted[k/2-1] + sorted[k/2]) / 2
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), so spreads printed here match the
// ones computed from the same values in Python.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// mean returns the arithmetic mean of xs (0 for none).
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
