package main

import (
	"math"
	"sort"
)

// summary describes a sample of one metric: its median, quartiles, extremes
// and size.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the summary of xs (all zero for an empty sample).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// spread is the inter-quartile distance as a share of the median (0 when the
// median is 0).
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// median of a sorted sample.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of a sorted sample, computed exactly as Python's
// statistics.quantiles(s, n=4) does (the default "exclusive" method), so
// spreads printed here match those computed by external tooling.
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// medianOf returns the median of an unsorted sample (0 when empty).
func medianOf(xs []float64) float64 { return summarize(xs).Median }
