// Package compress implements the update-compression baselines of the
// federated learning literature that the FHDnn paper positions itself
// against (federated dropout / sketched updates [Bouacida et al.; Caldas
// et al.]): float16 truncation, linear int8 quantization, and top-k
// sparsification of flat model updates. FHDnn's answer to communication
// cost is architectural (small HD updates); these codecs answer it by
// lossy-compressing big CNN updates, and the comparison experiment shows
// what each buys and costs.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec compresses a flat model update into bytes and back.
type Codec interface {
	// Encode serializes the update.
	Encode(update []float32) []byte
	// DecodeInto reconstructs an update of len(dst) values from data,
	// overwriting every element of dst, so a recycled buffer never leaks
	// values from an earlier update. Structurally invalid payloads yield a
	// *DecodeError, after which dst holds unspecified values; DecodeInto
	// never panics, since codec payloads arrive from the network (see
	// fedcore's envelope).
	DecodeInto(dst []float32, data []byte) error
	// Name identifies the codec in reports.
	Name() string
}

// DecodeError is the typed error returned by every codec for a
// structurally invalid payload: wrong length, out-of-range or duplicate
// indices, truncated headers. It lets network-facing callers distinguish
// corrupt payloads (quarantine material) from programming errors.
type DecodeError struct {
	Codec  string
	Reason string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("compress: %s: %s", e.Codec, e.Reason)
}

func decodeErrf(codec, format string, args ...any) *DecodeError {
	return &DecodeError{Codec: codec, Reason: fmt.Sprintf(format, args...)}
}

// ---- raw float32 -------------------------------------------------------

// Raw is the identity codec: 4 bytes per value, little-endian IEEE-754.
// It exists so the uncompressed baseline travels through the same wire
// envelope (and the same accounting) as the lossy codecs.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Encode implements Codec.
func (Raw) Encode(update []float32) []byte {
	out := make([]byte, 4*len(update))
	for i, v := range update {
		putU32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// DecodeInto implements Codec.
func (Raw) DecodeInto(dst []float32, data []byte) error {
	if len(data) != 4*len(dst) {
		return decodeErrf("raw", "payload %d bytes, want %d", len(data), 4*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(getU32(data))
		data = data[4:]
	}
	return nil
}

// ---- float16 ----------------------------------------------------------

// Float16 truncates each weight to IEEE-754 binary16 — the "22 MB" wire
// format of the paper's ResNet accounting.
type Float16 struct{}

// Name implements Codec.
func (Float16) Name() string { return "float16" }

// Encode implements Codec: 2 bytes per value.
func (Float16) Encode(update []float32) []byte {
	out := make([]byte, 2*len(update))
	for i, v := range update {
		h := Float32ToFloat16(v)
		out[2*i] = byte(h)
		out[2*i+1] = byte(h >> 8)
	}
	return out
}

// DecodeInto implements Codec.
func (Float16) DecodeInto(dst []float32, data []byte) error {
	if len(data) != 2*len(dst) {
		return decodeErrf("float16", "payload %d bytes, want %d", len(data), 2*len(dst))
	}
	for i := range dst {
		dst[i] = Float16ToFloat32(uint16(data[0]) | uint16(data[1])<<8)
		data = data[2:]
	}
	return nil
}

// Float32ToFloat16 converts with round-to-nearest-even, handling
// subnormals, infinities and NaN.
func Float32ToFloat16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF
	switch {
	case exp >= 0x1F: // overflow or inf/nan
		if int32(bits>>23&0xFF) == 0xFF && mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// subnormal: shift mantissa (with implicit leading 1)
		mant = (mant | 0x800000) >> uint32(1-exp)
		// round to nearest
		if mant&0x1000 != 0 {
			mant += 0x2000
		}
		return sign | uint16(mant>>13)
	default:
		// round to nearest even on the 13 dropped bits
		round := mant & 0x1FFF
		h := sign | uint16(exp)<<10 | uint16(mant>>13)
		if round > 0x1000 || (round == 0x1000 && h&1 == 1) {
			h++
		}
		return h
	}
}

// Float16ToFloat32 expands a binary16 value.
func Float16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1F:
		return math.Float32frombits(sign | 0xFF<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// ---- int8 linear quantization ------------------------------------------

// Int8 quantizes the update linearly to 8 bits with a per-update scale —
// the classical 4x compression of uplink quantization schemes.
type Int8 struct{}

// Name implements Codec.
func (Int8) Name() string { return "int8" }

// Encode stores a float32 scale followed by one int8 code per value.
func (Int8) Encode(update []float32) []byte {
	maxAbs := float64(0)
	for _, v := range update {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	scale := float32(1)
	if maxAbs > 0 {
		scale = float32(maxAbs / 127)
	}
	out := make([]byte, 4+len(update))
	bits := math.Float32bits(scale)
	out[0], out[1], out[2], out[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
	for i, v := range update {
		q := int32(math.Round(float64(v) / float64(scale)))
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		out[4+i] = byte(int8(q))
	}
	return out
}

// DecodeInto implements Codec.
func (Int8) DecodeInto(dst []float32, data []byte) error {
	if len(data) != 4+len(dst) {
		return decodeErrf("int8", "payload %d bytes, want %d", len(data), 4+len(dst))
	}
	scale := math.Float32frombits(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	for i := range dst {
		dst[i] = float32(int8(data[4+i])) * scale
	}
	return nil
}

// ---- top-k sparsification ----------------------------------------------

// TopK transmits only the k largest-magnitude entries (as index/value
// pairs); the receiver fills the rest with zeros. Frac is the kept
// fraction (e.g. 0.1 keeps 10% of the weights), clamped so that at least
// one entry and at most all of them are kept.
//
// Encode runs in linear time: a radix select finds the k-th largest
// magnitude, then one pass in index order emits the entries. Which
// entries are kept is fixed: magnitude descending, ties broken by the
// lower index. A NaN ranks above +Inf, so NaN entries are always kept
// (and the server's quarantine gate refuses the update).
type TopK struct {
	Frac float64
}

// Name implements Codec.
func (c TopK) Name() string { return fmt.Sprintf("topk(%.2g)", c.Frac) }

// Encode stores uint32 count, then (uint32 index, float32 value) pairs in
// increasing index order. Its only allocation is the returned payload.
func (c TopK) Encode(update []float32) []byte {
	k := int(c.Frac * float64(len(update)))
	if k < 1 {
		k = 1
	}
	if k > len(update) {
		k = len(update)
	}
	out := make([]byte, 4+8*k)
	putU32(out[0:], uint32(k))
	if k == 0 {
		return out
	}
	t, ties := kthLargestMagnitude(update, k)
	p := out[4:]
	for i, v := range update {
		key := magnitudeKey(v)
		if key < t || key == t && ties == 0 {
			continue
		}
		if key == t {
			ties--
		}
		putU32(p, uint32(i))
		putU32(p[4:], math.Float32bits(v))
		if p = p[8:]; len(p) == 0 {
			break
		}
	}
	return out
}

// magnitudeKey is v's bit pattern without the sign. For non-NaN floats,
// uint32 order on the key is the order of |v|; the NaN keys lie above
// +Inf's.
func magnitudeKey(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// kthLargestMagnitude returns the k-th largest magnitudeKey t in update
// (1 <= k <= len(update)) and how many of the keys equal to t rank among
// the k largest, by a most-significant-digit radix select over the 31 key
// bits in digits of 11, 10 and 10 bits. Each digit takes one histogram
// pass over the entries whose higher digits match those already chosen.
func kthLargestMagnitude(update []float32, k int) (t uint32, ties int) {
	var hist [1 << 11]int
	need := k // rank of the wanted key among the entries still matching t
	for _, dig := range [...]struct{ shift, width uint }{{20, 11}, {10, 10}, {0, 10}} {
		above := dig.shift + dig.width
		clear(hist[:])
		for _, v := range update {
			if key := magnitudeKey(v); key>>above == t>>above {
				hist[key>>dig.shift&(1<<dig.width-1)]++
			}
		}
		d := 1<<dig.width - 1
		for hist[d] < need {
			need -= hist[d]
			d--
		}
		t |= uint32(d) << dig.shift
	}
	return t, need
}

// DecodeInto implements Codec. It clears dst first: the entries a top-k
// payload does not carry are zeros, not whatever the buffer held. Encode
// always emits strictly increasing indices, so DecodeInto requires them:
// an index that is out of range, repeated, or out of order marks a
// corrupt (or adversarial) payload and is rejected with a typed error
// rather than silently overwriting entries.
func (c TopK) DecodeInto(dst []float32, data []byte) error {
	n := len(dst)
	if len(data) < 4 {
		return decodeErrf("topk", "payload too short (%d bytes)", len(data))
	}
	k := int(getU32(data))
	if k < 0 || k > n {
		return decodeErrf("topk", "count %d out of range for %d values", k, n)
	}
	if len(data) != 4+8*k {
		return decodeErrf("topk", "payload %d bytes, want %d", len(data), 4+8*k)
	}
	clear(dst)
	prev := -1
	for i := 0; i < k; i++ {
		j := int(getU32(data[4+8*i:]))
		// j < 0 only on 32-bit platforms, where int(uint32) can wrap
		// negative; without the explicit check it would reach the
		// monotonicity test with a misleading error.
		if j < 0 || j >= n {
			return decodeErrf("topk", "index %d out of range %d", j, n)
		}
		if j <= prev {
			if j == prev {
				return decodeErrf("topk", "duplicate index %d", j)
			}
			return decodeErrf("topk", "indices not strictly increasing at %d", j)
		}
		prev = j
		dst[j] = math.Float32frombits(getU32(data[8+8*i:]))
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// RoundTrip compresses and decompresses, returning the reconstruction and
// the compressed size in bytes.
func RoundTrip(c Codec, update []float32) ([]float32, int, error) {
	data := c.Encode(update)
	out := make([]float32, len(update))
	if err := c.DecodeInto(out, data); err != nil {
		return nil, len(data), err
	}
	return out, len(data), nil
}
