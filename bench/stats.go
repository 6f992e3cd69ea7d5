package main

import (
	"math"
	"sort"
)

// summary is how every timed value is reported: the median over the
// timed trials with its quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile is the "exclusive" method of Python's statistics.quantiles,
// the one the regression driver applies to the values this program
// prints: position p*(n+1) in the sorted sample, interpolated, clamped
// to the ends.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		N:      len(s),
	}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile distance as a share of the median, the
// figure a metric's bound is compared with.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailPercentile picks the highest of the usual percentiles that still
// has at least ten samples beyond it in a sample of n: with fewer, the
// figure is one outlier's latency, not a percentile.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []struct{ beyond, of int }{{1, 10000}, {1, 1000}, {1, 100}, {5, 100}, {10, 100}} {
		if n*c.beyond >= 10*c.of {
			return 1 - float64(c.beyond)/float64(c.of), true
		}
	}
	return 0, false
}

// percentileNS reads percentile p (nearest rank) off a sorted sample.
func percentileNS(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

// supportedPercentile reports the requested percentile only when the sample supports
// it (ten samples beyond); otherwise it falls back to the highest one
// that is supported, so a short smoke run never prints a "p99.9" that
// is really the maximum.
func supportedPercentile(sorted []uint32, want float64) float64 {
	p, ok := tailPercentile(len(sorted))
	if !ok {
		return percentileNS(sorted, 0.5)
	}
	if want < p {
		p = want
	}
	return percentileNS(sorted, p)
}
