package main

import (
	"fmt"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
)

// codecs are the wire codecs in codecNames order; top-k keeps 10%.
var codecs = []compress.Codec{compress.Raw{}, compress.Float16{}, compress.Int8{}, compress.TopK{Frac: 0.1}}

// minReplaySamples is how many timed calls each replayed figure rests on
// at least.
const minReplaySamples = 24

// replayCodecs times the wire layers on a workload's own update vectors,
// one call at a time: compress Encode per codec, fedcore.DecodeEnvelope
// of the envelopes that produces, and fedcore.Bundle Add and Commit over
// the decoded updates. Each figure is the median call, in ms. Calls are
// recorded as spans under one replay root.
func replayCodecs(tr *tracer, sources [][]float32, into map[string]float64) error {
	if len(sources) == 0 {
		return fmt.Errorf("replay: no update vectors")
	}
	n := len(sources[0])
	reps := (minReplaySamples + len(sources) - 1) / len(sources)
	root := tr.begin("replay", 0, 0)
	defer tr.end(root)
	timed := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.record(name, 0, root, t0, t1)
		return ms(t1.Sub(t0))
	}
	var decoded [][]float32
	for ci, c := range codecs {
		var enc, dec []float64
		for r := 0; r < reps; r++ {
			for _, src := range sources {
				var payload []byte
				enc = append(enc, timed("compress.encode", func() { payload = c.Encode(src) }))
				env, err := fedcore.EncodeEnvelope(c, src)
				if err != nil {
					return fmt.Errorf("replay: %w", err)
				}
				if len(env) != fedcore.EnvelopeOverhead+len(payload) {
					return fmt.Errorf("replay: %s envelope is %d bytes, payload %d", codecNames[ci], len(env), len(payload))
				}
				var out []float32
				var derr error
				dec = append(dec, timed("fedcore.decode_envelope", func() { out, _, derr = fedcore.DecodeEnvelope(env, n) }))
				if derr != nil {
					return fmt.Errorf("replay: decode %s: %w", codecNames[ci], derr)
				}
				if r == 0 && ci == 0 {
					decoded = append(decoded, out)
				}
			}
		}
		into["compress.encode_ms."+codecNames[ci]] = median(enc)
		into["fedcore.decode_envelope_ms."+codecNames[ci]] = median(dec)
	}
	var add, commit []float64
	b := &fedcore.Bundle{}
	for len(add) < minReplaySamples {
		b.Reset()
		for _, p := range decoded {
			add = append(add, timed("fedcore.bundle_add", func() { b.Add(fedcore.Update{Params: p}) }))
		}
	}
	global := make([]float32, n)
	for len(commit) < minReplaySamples {
		commit = append(commit, timed("fedcore.bundle_commit", func() { b.Commit(global) }))
	}
	into["fedcore.bundle_add_ms"] = median(add)
	into["fedcore.bundle_commit_ms"] = median(commit)
	return nil
}
