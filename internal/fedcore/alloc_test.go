package fedcore

import (
	"errors"
	"math"
	"testing"

	"fhdnn/internal/compress"
)

// The ingest path's allocation contract: decoding an envelope into a
// reused buffer, and a round of Add/Commit/Reset on a warmed-up
// aggregator, allocate nothing. A server that recycles its decode
// buffers and keeps one aggregator across rounds then handles a
// steady-state upload without touching the heap.
func TestIngestPathDoesNotAllocate(t *testing.T) {
	const n = 1024
	params := testUpdate(n, 5)
	dst := make([]float32, n)
	for _, c := range []compress.Codec{
		compress.Raw{}, compress.Float16{}, compress.Int8{}, compress.TopK{Frac: 0.1},
	} {
		data, err := EncodeEnvelope(c, params)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := DecodeEnvelopeInto(dst, data); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeEnvelopeInto(%s): %v allocs/op, want 0", c.Name(), allocs)
		}
	}

	updates := make([][]float32, 5)
	for i := range updates {
		updates[i] = testUpdate(n, int64(10+i))
	}
	global := make([]float32, n)
	round := func(a Aggregator) {
		for _, u := range updates {
			a.Add(Update{Params: u, Samples: 1})
		}
		a.Commit(global)
		a.Reset()
	}

	// Bundle: the warm-up run sizes the accumulator, then three more
	// rounds per measured run reuse it.
	bundle := &Bundle{}
	if allocs := testing.AllocsPerRun(10, func() {
		for r := 0; r < 3; r++ {
			round(bundle)
		}
	}); allocs != 0 {
		t.Errorf("Bundle, 3 rounds: %v allocs/op, want 0", allocs)
	}

	// The storing and clipping policies, after their first round. The
	// clip bound is below every update's norm, so each Add clips.
	for _, a := range []Aggregator{
		&Median{},
		&TrimmedMean{Frac: 0.2},
		&NormClip{Inner: &Median{}, Bound: 1},
		&NormClip{Inner: &Bundle{}, Bound: 1},
	} {
		round(a)
		if allocs := testing.AllocsPerRun(10, func() { round(a) }); allocs != 0 {
			t.Errorf("%s: %v allocs/op after the first round, want 0", AggregatorName(a), allocs)
		}
	}
}

// Add never retains u.Params: overwriting every update right after its
// Add — as a server recycling one decode buffer does — must not change
// what any aggregator commits.
func TestAggregatorsDoNotRetainParams(t *testing.T) {
	const n, clients = 64, 7
	updates := make([][]float32, clients)
	for i := range updates {
		updates[i] = testUpdate(n, int64(40+i))
	}
	policies := map[string]func() Aggregator{
		"bundle":       func() Aggregator { return &Bundle{} },
		"fedavg":       func() Aggregator { return &FedAvg{} },
		"async":        func() Aggregator { return &AsyncStaleness{Alpha: 0.5} },
		"median":       func() Aggregator { return &Median{} },
		"trimmed":      func() Aggregator { return &TrimmedMean{Frac: 0.2} },
		"clip:median":  func() Aggregator { return &NormClip{Inner: &Median{}, Bound: 6} },
		"clip:trimmed": func() Aggregator { return &NormClip{Inner: &TrimmedMean{Frac: 0.2}, Bound: 6} },
	}
	for name, build := range policies {
		want := make([]float32, n)
		ref := build()
		for i, u := range updates {
			ref.Add(Update{Params: append([]float32(nil), u...), Samples: i + 1, Staleness: i})
		}
		ref.Commit(want)

		a := build()
		// Two rounds, so the second runs on storage reused across Reset.
		for r := 0; r < 2; r++ {
			a.Reset()
			buf := make([]float32, n)
			for i, u := range updates {
				copy(buf, u)
				a.Add(Update{Params: buf, Samples: i + 1, Staleness: i})
				for j := range buf {
					buf[j] = float32(math.NaN())
				}
			}
			got := make([]float32, n)
			a.Commit(got)
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("%s round %d: global[%d] = %v, want %v", name, r, j, got[j], want[j])
				}
			}
		}
	}
}

// DecodeEnvelopeInto requires the envelope to carry exactly len(dst)
// elements; an empty dst is no licence for a self-described count.
func TestDecodeEnvelopeIntoCountMustMatch(t *testing.T) {
	data, err := EncodeEnvelope(compress.Raw{}, testUpdate(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 7, 9} {
		if _, err := DecodeEnvelopeInto(make([]float32, n), data); !errors.Is(err, ErrEnvelopeCount) {
			t.Errorf("len(dst) = %d, 8-element envelope: err = %v, want ErrEnvelopeCount", n, err)
		}
	}
}
