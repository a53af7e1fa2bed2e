package main

import (
	"math"
	"sort"
)

// spread is a sample's size and distribution, printed beside every
// median in the run record.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between closest ranks (q in [0,1]).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func spreadOf(xs []float64) spread {
	s := sorted(xs)
	if len(s) == 0 {
		return spread{}
	}
	return spread{
		N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail returns the highest whole percentile that leaves at least ten
// samples above it, and the nearest-rank value at that percentile. With
// ten samples or fewer no percentile qualifies; it then returns the
// maximum as percentile 100.
func tail(xs []float64) (value float64, pct int) {
	s := sorted(xs)
	n := len(s)
	if n <= 10 {
		if n == 0 {
			return 0, 100
		}
		return s[n-1], 100
	}
	pct = 100 * (n - 10) / n
	rank := int(math.Ceil(float64(pct) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], pct
}
