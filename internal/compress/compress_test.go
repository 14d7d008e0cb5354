package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randomUpdate(rng *rand.Rand, n int) []float32 {
	u := make([]float32, n)
	for i := range u {
		u[i] = float32(rng.NormFloat64() * 0.1)
	}
	return u
}

func TestFloat16KnownValues(t *testing.T) {
	cases := map[float32]uint16{
		0:     0x0000,
		1:     0x3C00,
		-2:    0xC000,
		0.5:   0x3800,
		65504: 0x7BFF, // max finite half
	}
	for f, want := range cases {
		if got := Float32ToFloat16(f); got != want {
			t.Fatalf("Float32ToFloat16(%v) = %#x, want %#x", f, got, want)
		}
		if back := Float16ToFloat32(want); back != f {
			t.Fatalf("Float16ToFloat32(%#x) = %v, want %v", want, back, f)
		}
	}
}

func TestFloat16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if got := Float16ToFloat32(Float32ToFloat16(inf)); !math.IsInf(float64(got), 1) {
		t.Fatalf("+Inf round trip = %v", got)
	}
	nan := float32(math.NaN())
	if got := Float16ToFloat32(Float32ToFloat16(nan)); !math.IsNaN(float64(got)) {
		t.Fatalf("NaN round trip = %v", got)
	}
	// overflow saturates to Inf
	if got := Float16ToFloat32(Float32ToFloat16(1e10)); !math.IsInf(float64(got), 1) {
		t.Fatalf("overflow = %v, want +Inf", got)
	}
	// tiny values underflow to (signed) zero
	if got := Float16ToFloat32(Float32ToFloat16(1e-10)); got != 0 {
		t.Fatalf("underflow = %v, want 0", got)
	}
}

// Property: float16 round trip is within half-precision tolerance for
// normal-range values.
func TestFloat16RoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := float32(rng.NormFloat64() * 100)
			back := Float16ToFloat32(Float32ToFloat16(v))
			if math.Abs(float64(back-v)) > math.Abs(float64(v))*1e-3+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat16Subnormals(t *testing.T) {
	// 2^-17 is subnormal in binary16 (min normal is 2^-14)
	v := float32(math.Ldexp(1, -17))
	back := Float16ToFloat32(Float32ToFloat16(v))
	if math.Abs(float64(back-v)) > float64(v)*0.01 {
		t.Fatalf("subnormal round trip %v -> %v", v, back)
	}
}

func TestFloat16CodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := randomUpdate(rng, 1000)
	got, size, err := RoundTrip(Float16{}, u)
	if err != nil {
		t.Fatal(err)
	}
	if size != 2000 {
		t.Fatalf("float16 size %d, want 2000", size)
	}
	for i := range u {
		if math.Abs(float64(got[i]-u[i])) > math.Abs(float64(u[i]))*1e-3+1e-4 {
			t.Fatalf("value %d: %v -> %v", i, u[i], got[i])
		}
	}
}

func TestInt8CodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := randomUpdate(rng, 1000)
	got, size, err := RoundTrip(Int8{}, u)
	if err != nil {
		t.Fatal(err)
	}
	if size != 1004 {
		t.Fatalf("int8 size %d, want 1004", size)
	}
	// error bounded by one quantization step
	maxAbs := 0.0
	for _, v := range u {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	step := maxAbs / 127
	for i := range u {
		if math.Abs(float64(got[i]-u[i])) > step*0.51 {
			t.Fatalf("value %d: %v -> %v (step %v)", i, u[i], got[i], step)
		}
	}
}

func TestInt8ZeroUpdate(t *testing.T) {
	got, _, err := RoundTrip(Int8{}, make([]float32, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatal("zero update must round trip to zeros")
		}
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	u := []float32{0.1, -5, 0.2, 3, -0.05, 0, 4, -0.3}
	got, size, err := RoundTrip(TopK{Frac: 0.25}, u) // keep 2
	if err != nil {
		t.Fatal(err)
	}
	if size != 4+8*2 {
		t.Fatalf("topk size %d", size)
	}
	want := []float32{0, -5, 0, 0, 0, 0, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topk[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTopKFracBounds(t *testing.T) {
	u := []float32{1, 2}
	got, _, err := RoundTrip(TopK{Frac: 0}, u) // clamps to k=1
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range got {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("k=1 kept %d values", nonzero)
	}
	got, _, err = RoundTrip(TopK{Frac: 5}, u) // clamps to all
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatal("frac > 1 must keep everything")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	u := []float32{1, 1, 1, 1}
	a := TopK{Frac: 0.5}.Encode(u)
	b := TopK{Frac: 0.5}.Encode(u)
	if string(a) != string(b) {
		t.Fatal("topk must be deterministic under ties")
	}
}

// topKEncodeRef is the sort-based top-k encoder: order every index by
// magnitude descending, ties to the lower index, keep the first k and
// emit them in index order. TopK.Encode must produce exactly its payload
// for every input without NaN. (Its comparator is not a strict weak order
// on NaN, so its NaN result is unspecified.)
func topKEncodeRef(c TopK, update []float32) []byte {
	k := int(c.Frac * float64(len(update)))
	if k < 1 {
		k = 1
	}
	if k > len(update) {
		k = len(update)
	}
	idx := make([]int, len(update))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		av := math.Abs(float64(update[idx[a]]))
		bv := math.Abs(float64(update[idx[b]]))
		if av != bv {
			return av > bv
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	kept := idx[:k]
	sort.Ints(kept) // index-ordered payload compresses and scans better
	out := make([]byte, 4+8*k)
	putU32(out[0:], uint32(k))
	for i, j := range kept {
		putU32(out[4+8*i:], uint32(j))
		putU32(out[8+8*i:], math.Float32bits(update[j]))
	}
	return out
}

// topKFracs covers the clamps (Frac <= 0 keeps one entry, Frac > 1 keeps
// all of them) and fractions in between.
var topKFracs = []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.999, 1, 1.5}

// The radix-select encoder emits the sort reference's payload byte for
// byte on inputs built to stress it: heavy ties, +-0, +-Inf, subnormals,
// the largest finite floats, runs of adjacent floats that agree in the
// high radix digits and differ only in the low ones, all-zero input, and
// lengths 0 and 1.
func TestTopKEncodeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pool := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(1), math.Float32frombits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32}
	check := func(name string, u []float32) {
		t.Helper()
		for _, frac := range topKFracs {
			c := TopK{Frac: frac}
			if got, want := c.Encode(u), topKEncodeRef(c, u); !bytes.Equal(got, want) {
				t.Fatalf("%s (n=%d, frac=%v): payload differs from the sort reference\ngot  %x\nwant %x",
					name, len(u), frac, got, want)
			}
		}
	}
	check("empty", nil)
	check("one", []float32{-3})
	check("all zero", make([]float32, 300))
	for trial := 0; trial < 1500; trial++ {
		u := make([]float32, 1+rng.Intn(400))
		base := rng.Uint32() &^ (1 << 31)
		for i := range u {
			switch rng.Intn(4) {
			case 0:
				u[i] = pool[rng.Intn(len(pool))]
			case 1:
				u[i] = float32(rng.Intn(5) - 2) // small integers: many ties
			case 2:
				// Neighbours of base: equal high digits, so the select
				// must resolve them in the low digit passes.
				bits := base + uint32(rng.Intn(40))
				if bits&0x7f800000 == 0x7f800000 {
					bits = 0x7f7fffff - uint32(rng.Intn(40))
				}
				u[i] = math.Float32frombits(bits | uint32(rng.Intn(2))<<31)
			default:
				u[i] = float32(rng.NormFloat64())
			}
		}
		check("random", u)
	}
	check("paper size", randomUpdate(rng, 100000))
}

// NaN's magnitude bits rank above +Inf, so Encode keeps every NaN entry
// while k allows, whatever its sign. Between NaNs the magnitude bits
// decide, mantissa payload included.
func TestTopKKeepsNaN(t *testing.T) {
	negNaN := math.Float32frombits(0xffc00001)
	u := []float32{1, float32(math.NaN()), float32(math.Inf(-1)), 2, negNaN}
	for _, tc := range []struct {
		frac float64
		want []int
	}{
		{0.4, []int{1, 4}},
		{0.6, []int{1, 2, 4}},
		{0.2, []int{4}}, // 0x7fc00001 ranks above the quiet NaN 0x7fc00000
	} {
		data := TopK{Frac: tc.frac}.Encode(u)
		var got []int
		for p := data[4:]; len(p) > 0; p = p[8:] {
			got = append(got, int(getU32(p)))
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("frac %v: kept indices %v, want %v", tc.frac, got, tc.want)
		}
	}
}

// FuzzTopKEncode reads arbitrary bytes as little-endian float32s. Without
// NaN the payload must equal the sort reference's; with NaN it must keep
// the NaN entries first (the reference's NaN order is unspecified).
func FuzzTopKEncode(f *testing.F) {
	le := func(vals ...uint32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(le(0x3f800000, 0xbf800000, 0x40000000, 0), 0.5)
	f.Add(le(0, 0x80000000, 0, 0x80000000), 0.25)
	f.Add(le(0x7f800000, 0xff800000, 0x00000001, 0x80000001), 0.75)
	f.Add(le(0x3f800000, 0x7fc00000, 0x7f800000), 0.34)
	f.Add(le(0x3f800001, 0x3f800000, 0xbf800001, 0x3f800002), -1.0)
	f.Add(le(0x7f7fffff), 5.0)
	f.Add([]byte{}, 0.1)
	f.Fuzz(func(t *testing.T, data []byte, frac float64) {
		u := make([]float32, len(data)/4)
		nans := 0
		for i := range u {
			u[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			if math.IsNaN(float64(u[i])) {
				nans++
			}
		}
		c := TopK{Frac: frac}
		got := c.Encode(u)
		if nans == 0 {
			if want := topKEncodeRef(c, u); !bytes.Equal(got, want) {
				t.Fatalf("payload differs from the sort reference\ngot  %x\nwant %x", got, want)
			}
			return
		}
		if err := c.DecodeInto(make([]float32, len(u)), got); err != nil {
			t.Fatalf("payload with NaN input does not decode: %v", err)
		}
		kept := 0
		for p := got[4:]; len(p) > 0; p = p[8:] {
			if math.IsNaN(float64(math.Float32frombits(getU32(p[4:])))) {
				kept++
			}
		}
		if k := int(getU32(got)); kept != min(nans, k) {
			t.Fatalf("kept %d of %d NaN entries with k=%d", kept, nans, k)
		}
	})
}

// Encode's only allocation is the payload it returns: the radix
// histogram lives on the stack.
func TestTopKEncodeAllocatesOnlyPayload(t *testing.T) {
	u := randomUpdate(rand.New(rand.NewSource(15)), 100000)
	if allocs := testing.AllocsPerRun(10, func() { TopK{Frac: 0.1}.Encode(u) }); allocs != 1 {
		t.Errorf("TopK.Encode at n=%d: %v allocs/op, want 1", len(u), allocs)
	}
}

var sinkPayload []byte

func BenchmarkTopKEncode(b *testing.B) {
	u := randomUpdate(rand.New(rand.NewSource(16)), 100000)
	c := TopK{Frac: 0.1}
	b.SetBytes(int64(4 * len(u)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPayload = c.Encode(u)
	}
}

func TestDecodeErrors(t *testing.T) {
	if err := (Float16{}).DecodeInto(make([]float32, 2), []byte{1, 2, 3}); err == nil {
		t.Fatal("float16 bad length accepted")
	}
	if err := (Int8{}).DecodeInto(make([]float32, 4), []byte{1, 2}); err == nil {
		t.Fatal("int8 bad length accepted")
	}
	if err := (TopK{Frac: 0.5}).DecodeInto(make([]float32, 4), []byte{1}); err == nil {
		t.Fatal("topk short payload accepted")
	}
	// out-of-range index
	bad := make([]byte, 4+8)
	putU32(bad, 1)
	putU32(bad[4:], 99)
	if err := (TopK{Frac: 0.5}).DecodeInto(make([]float32, 4), bad); err == nil {
		t.Fatal("topk bad index accepted")
	}
	// index with the top bit set: wraps negative on 32-bit platforms,
	// huge positive on 64-bit — must be rejected either way, never
	// reach the output write
	wrap := make([]byte, 4+8)
	putU32(wrap, 1)
	putU32(wrap[4:], 0x80000000)
	if err := (TopK{Frac: 0.5}).DecodeInto(make([]float32, 4), wrap); err == nil {
		t.Fatal("topk wrap-around index accepted")
	}
}

func TestCodecNames(t *testing.T) {
	for _, c := range []Codec{Float16{}, Int8{}, TopK{Frac: 0.1}} {
		if c.Name() == "" {
			t.Fatal("codec must have a name")
		}
	}
}

// Compression ratios: the reason these baselines exist.
func TestCompressionRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := randomUpdate(rng, 10000)
	raw := 4 * len(u)
	for _, tc := range []struct {
		codec Codec
		want  float64 // expected compression factor
		tol   float64
	}{
		{Float16{}, 2, 0.01},
		{Int8{}, 4, 0.01},
		{TopK{Frac: 0.1}, 5, 0.05},
	} {
		_, size, err := RoundTrip(tc.codec, u)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(raw) / float64(size)
		if math.Abs(ratio-tc.want)/tc.want > tc.tol {
			t.Fatalf("%s: compression %vx, want ~%vx", tc.codec.Name(), ratio, tc.want)
		}
	}
}
