package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// The gated numbers are the best of their repetitions (or of the parts
// of a load window), not the median: on a shared two-core host a fixed
// piece of work takes 93 to 140ms from one second to the next, always
// because something else slowed it down, never because it ran faster
// than the hardware allows. The fastest repetition is therefore the
// steadiest estimate of the code's own cost: best of ten repeats within
// a few percent where the median of ten moves by twenty. Both commits of
// a comparison are measured the same way.

// lowest returns the smallest of xs (0 for none): the best of several
// times.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// highest returns the largest of xs (0 for none): the best of several
// rates.
func highest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 of 200 samples rests on two of them.
const minBeyond = 10

// percentile returns the q-quantile of an ascending slice, and whether
// at least minBeyond samples lie beyond it.
func percentile(s []float64, q float64) (float64, bool) {
	atOrBelow := int(math.Ceil(q*float64(len(s)) - 1e-9))
	return quantileSorted(s, q), len(s)-atOrBelow >= minBeyond
}

// supported returns the q-quantile, or the highest supported lower
// percentile of the usual ladder when q itself has too few samples
// beyond it. An empty slice gives 0.
func supported(s []float64, q float64) float64 {
	for _, try := range []float64{q, 0.99, 0.9, 0.5} {
		if try > q {
			continue
		}
		if v, ok := percentile(s, try); ok {
			return v
		}
	}
	return quantileSorted(s, 0.5)
}

// sortedCopy returns xs in ascending order, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with Python's statistics.quantiles(n=4)
// (exclusive method) so that -compare agrees with the driver.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j, frac = 1, 0
		}
		if j > len(s)-1 {
			j, frac = len(s)-1, 1
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := quantileSorted(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// fnv64 is a running FNV-1a digest; the checks feed it tuples in scan
// order, one big-endian word at a time.
type fnv64 uint64

const fnvOffset fnv64 = 14695981039346656037

func (h fnv64) word(v uint64) fnv64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= fnv64(byte(v >> uint(shift)))
		h *= 1099511628211
	}
	return h
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
