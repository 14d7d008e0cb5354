package fl

import (
	"hash/fnv"
	"math"
	"testing"

	"fhdnn/internal/compress"
	"fhdnn/internal/tensor"
)

// TestHDTopKGolden pins the final model and the accounted uplink bytes of
// a short HDTrainer run over a top-k uplink, for the paper's fixed
// refinement rule and the adaptive one. The run passes through every
// bit-sensitive step of a client round: EncodeBatch, RefineEpoch or
// RefineEpochAdaptive (Predict, Similarities), the TopK encode/decode and
// Bundle, so any change to those that is not bit-identical moves the hash.
// The values were recorded with the sort-based TopK encoder and the
// per-class Cosine loop in Predict.
func TestHDTopKGolden(t *testing.T) {
	if tensor.FastKernels() {
		t.Skip("fhdnnfast: EncodeBatch's FMA matmul is documented as not bit-identical to the default build")
	}
	for _, tc := range []struct {
		adaptive bool
		hash     uint64
		bytes    int64
	}{
		{false, 0x7c2f4c45e1518b3d, 49440},
		{true, 0xa26c5e4ca91a233a, 49440},
	} {
		tr := hdSetup(t, 5, 46)
		tr.Cfg.Uplink = compress.Uplink{C: compress.TopK{Frac: 0.1}}
		tr.Cfg.Rounds = 4
		tr.Adaptive, tr.AdaptiveLR = tc.adaptive, 0.8
		hist, model := tr.Run()
		h := fnv.New64a()
		var b [4]byte
		for _, v := range model.Flat() {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("adaptive=%v: final model hash %#x, want %#x", tc.adaptive, got, tc.hash)
		}
		if got := hist.TotalBytes(); got != tc.bytes {
			t.Errorf("adaptive=%v: uplinked %d bytes, want %d", tc.adaptive, got, tc.bytes)
		}
	}
}
