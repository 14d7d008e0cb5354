package main

import (
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so summarize must sort
	}
	return xs
}

func TestPercentileRuleNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n            int
		tailP, p99Is float64
	}{
		{n: 100000, tailP: 99.9, p99Is: 99},
		{n: 10000, tailP: 99.9, p99Is: 99},
		{n: 9999, tailP: 99, p99Is: 99}, // p99.9 has only 9 beyond
		{n: 1000, tailP: 99, p99Is: 99},
		{n: 999, tailP: 95, p99Is: 95}, // p99 has only 9 beyond
		{n: 200, tailP: 95, p99Is: 95},
		{n: 100, tailP: 90, p99Is: 90},
		{n: 20, tailP: 50, p99Is: 50},
		{n: 19, tailP: 0, p99Is: 100},
	}
	for _, c := range cases {
		s := summarize(ramp(c.n))
		if s.N != c.n || s.TailP != c.tailP || s.P99Is != c.p99Is {
			t.Errorf("n=%d: got N=%d tail p%g p99 is p%g, want tail p%g p99 is p%g",
				c.n, s.N, s.TailP, s.P99Is, c.tailP, c.p99Is)
		}
		if s.TailP > 0 && beyond(s.N, s.TailP) < minBeyond {
			t.Errorf("n=%d: tail p%g has %d samples beyond", c.n, s.TailP, beyond(s.N, s.TailP))
		}
		if !strings.Contains(s.String(), "n=") {
			t.Errorf("n=%d: summary %q does not state its sample count", c.n, s)
		}
	}
}

func TestPercentileValuesAreNearestRank(t *testing.T) {
	s := summarize(ramp(1000)) // values 1..1000
	if s.P50 != 500 || s.P99 != 990 || s.Tail != 990 {
		t.Fatalf("p50=%v p99=%v tail=%v, want 500, 990, 990", s.P50, s.P99, s.Tail)
	}
	if got := summarize(ramp(19)).P99; got != 19 {
		t.Fatalf("too few samples: p99 stand-in %v, want the maximum 19", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 4 = %v", m)
	}
}
