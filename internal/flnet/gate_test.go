package flnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// quarantineReasonRef is the quarantine gate as one float64 pass that
// checks every value with IsNaN/IsInf and tracks the sum of squares and
// the largest magnitude as it goes. quarantineReason must return exactly
// what it returns, reason and detail alike, on every input.
func quarantineReasonRef(flat []float32, maxNorm float64) (reason, detail string) {
	var sum float64
	peakIdx, peakAbs := -1, 0.0
	for i, v := range flat {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return QuarantineNonFinite, fmt.Sprintf("non-finite parameter %v at index %d", v, i)
		}
		sum += f * f
		if a := math.Abs(f); a > peakAbs {
			peakIdx, peakAbs = i, a
		}
	}
	if maxNorm > 0 {
		if norm := math.Sqrt(sum); norm > maxNorm {
			return QuarantineNormBound, fmt.Sprintf(
				"L2 norm %.4g exceeds limit %g (largest parameter %.4g at index %d)",
				norm, maxNorm, peakAbs, peakIdx)
		}
	}
	return "", ""
}

func checkGateAgrees(t *testing.T, name string, flat []float32, maxNorm float64) {
	t.Helper()
	gotR, gotD := quarantineReason(flat, maxNorm)
	wantR, wantD := quarantineReasonRef(flat, maxNorm)
	if gotR != wantR || gotD != wantD {
		t.Errorf("%s (maxNorm %v): got (%q, %q), want (%q, %q)", name, maxNorm, gotR, gotD, wantR, wantD)
	}
}

// l2 is the norm the gate computes: a float64 sum of squares in index
// order.
func l2(flat []float32) float64 {
	var sum float64
	for _, v := range flat {
		f := float64(v)
		sum += f * f
	}
	return math.Sqrt(sum)
}

// The bit-mask gate returns the reference gate's verdict and detail on
// every non-finite encoding, on the finite extremes, for the first
// offending index, and at the norm bound and one ulp either side of it.
func TestQuarantineGateMatchesReference(t *testing.T) {
	f32 := math.Float32frombits
	specials := map[string]float32{
		"quiet NaN":           f32(0x7fc00000),
		"signalling NaN":      f32(0x7f800001),
		"negative quiet NaN":  f32(0xffc00000),
		"negative sNaN":       f32(0xff800001),
		"NaN all mantissa":    f32(0x7fffffff),
		"+Inf":                float32(math.Inf(1)),
		"-Inf":                float32(math.Inf(-1)),
		"smallest subnormal":  f32(0x00000001),
		"largest subnormal":   f32(0x007fffff),
		"negative subnormal":  f32(0x80000001),
		"+0":                  0,
		"-0":                  f32(0x80000000),
		"+MaxFloat32":         math.MaxFloat32,
		"-MaxFloat32":         -math.MaxFloat32,
		"smallest normal":     f32(0x00800000),
		"exponent 0xfe, full": f32(0x7f7fffff),
	}
	base := []float32{0.5, -1.25, 3, 0, -0.75, 2, 1e-3, -4}
	for name, v := range specials {
		for _, at := range []int{0, 3, len(base) - 1} {
			flat := append([]float32(nil), base...)
			flat[at] = v
			for _, maxNorm := range []float64{0, 1, 6, 1e39} {
				checkGateAgrees(t, fmt.Sprintf("%s at %d", name, at), flat, maxNorm)
			}
		}
	}

	// The first non-finite index wins, whichever kind comes first.
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	checkGateAgrees(t, "NaN then Inf", []float32{1, nan, 2, inf}, 0)
	checkGateAgrees(t, "Inf then NaN", []float32{1, -inf, 2, nan}, 0)
	checkGateAgrees(t, "NaN then Inf, norm gate on", []float32{1, nan, 2, inf}, 1)
	checkGateAgrees(t, "Inf then NaN, norm gate on", []float32{1, inf, 2, nan}, 1)

	// Norms at the bound and one ulp either side of it, on updates whose
	// largest parameter sits at different indices (ties keep the first).
	for _, flat := range [][]float32{
		{3, 4},
		{0.1, -0.2, 0.3, -0.4, 0.5},
		{-7, 7, 1, 0},
		{math.MaxFloat32, 1},
		{f32(1), f32(2)}, // subnormals only
	} {
		norm := l2(flat)
		for _, maxNorm := range []float64{norm, math.Nextafter(norm, 0), math.Nextafter(norm, math.Inf(1))} {
			checkGateAgrees(t, fmt.Sprint(flat), flat, maxNorm)
		}
	}

	checkGateAgrees(t, "empty", nil, 0)
	checkGateAgrees(t, "empty, norm gate on", nil, 1)
	checkGateAgrees(t, "all zero", make([]float32, 7), 1e-300)
}

// FuzzQuarantineGate reads arbitrary bytes as little-endian float32s and
// requires the bit-mask gate to agree with the reference gate.
func FuzzQuarantineGate(f *testing.F) {
	le := func(vals ...uint32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(le(0x3f800000, 0x40000000), 0.0)
	f.Add(le(0x3f800000, 0x7fc00000, 0x7f800000), 0.0)
	f.Add(le(0x3f800000, 0xff800000, 0x7f800001), 1.0)
	f.Add(le(0x40400000, 0x40800000), 5.0) // {3, 4}: norm exactly 5
	f.Add(le(0x00000001, 0x80000001, 0x7f7fffff), 1e38)
	f.Add([]byte{1, 2, 3}, 2.0)
	f.Fuzz(func(t *testing.T, data []byte, maxNorm float64) {
		flat := make([]float32, len(data)/4)
		for i := range flat {
			flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkGateAgrees(t, "fuzz", flat, maxNorm)
	})
}

// A clean update passes the gate without allocating, with the norm gate
// off (the default) and on.
func TestQuarantineGateCleanDoesNotAllocate(t *testing.T) {
	flat := make([]float32, 4096)
	for i := range flat {
		flat[i] = float32(i%9) - 4
	}
	for _, maxNorm := range []float64{0, 1e9} {
		if allocs := testing.AllocsPerRun(10, func() {
			if r, _ := quarantineReason(flat, maxNorm); r != "" {
				t.Fatalf("clean update quarantined: %s", r)
			}
		}); allocs != 0 {
			t.Errorf("gate (maxNorm %v): %v allocs/op, want 0", maxNorm, allocs)
		}
	}
}
