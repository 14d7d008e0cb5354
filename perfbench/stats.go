package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is one or two
// outliers, not a distribution.
const minBeyond = 10

// tailLadder lists the percentiles a summary may report as its tail,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// summary is one timing's distribution: its sample count, median, and
// the highest percentile of tailLadder with at least minBeyond samples
// above it.
type summary struct {
	N     int
	P50   float64 // milliseconds
	TailP float64 // which percentile Tail is; 0 when N is too small for any
	Tail  float64 // milliseconds
	P99   float64 // p99 when N supports it, else Tail, else the maximum
	P99Is float64 // the percentile P99 really is: 99, TailP or 100
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the slack keeps float error in p*n from pushing an exact rank up.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// quantile returns the nearest-rank p-th percentile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), p) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize applies the percentile rule to samples in milliseconds.
func summarize(ms []float64) summary {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s := summary{N: len(ms), P50: quantile(sorted, 50)}
	for _, p := range tailLadder {
		if beyond(s.N, p) >= minBeyond {
			s.TailP, s.Tail = p, quantile(sorted, p)
			break
		}
	}
	switch {
	case beyond(s.N, 99) >= minBeyond:
		s.P99, s.P99Is = quantile(sorted, 99), 99
	case s.TailP > 0:
		s.P99, s.P99Is = s.Tail, s.TailP
	default:
		// Too few samples for any tail: the maximum stands in.
		s.P99, s.P99Is = quantile(sorted, 100), 100
	}
	return s
}

// String renders the summary with its sample count and the percentile
// its tail really is.
func (s summary) String() string {
	if s.TailP == 0 {
		return fmt.Sprintf("n=%d p50=%.4f (too few samples for a tail)", s.N, s.P50)
	}
	return fmt.Sprintf("n=%d p50=%.4f p%g=%.4f", s.N, s.P50, s.TailP, s.Tail)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// blockSize is how many operations one latency block holds: enough for
// its p99 to have exactly minBeyond samples above it.
const blockSize = 1000

// blocked summarizes latencies taken in completion order. A run long
// enough for at least two blocks reports the median over consecutive
// blocks of each block's p50 and p99, so a burst of host noise in one
// block cannot move the figure; a shorter run reports the whole set's.
func blocked(ms []float64) summary {
	all := summarize(ms)
	nb := len(ms) / blockSize
	if nb < 2 {
		return all
	}
	var p50, p99 []float64
	for b := 0; b < nb; b++ {
		s := summarize(ms[b*blockSize : (b+1)*blockSize])
		p50 = append(p50, s.P50)
		p99 = append(p99, s.P99)
	}
	all.P50, all.P99, all.P99Is = median(p50), median(p99), 99
	return all
}

// windowRate is the median, over consecutive windows of length w from
// from on, of operations completed per second; ends are completion
// times and the last, partial window is dropped.
func windowRate(ends []time.Time, from time.Time, w time.Duration) float64 {
	var counts []float64
	for _, e := range ends {
		i := int(e.Sub(from) / w)
		if i < 0 {
			continue
		}
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1]
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}
