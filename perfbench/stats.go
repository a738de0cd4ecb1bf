package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations, kept whole so every percentile is
// exact rather than bucketed.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for
// an empty set. With fewer than 1/(1-q) samples it is the maximum.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// ms and us convert a duration to fractional milliseconds and
// microseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, returning 0 for an empty base.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// medianOf returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
