package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
)

// ingest-paper: a closed loop of two connections POSTing envelopes built
// in advance at the paper's model size, so the server's ingest path
// (body read, decode, quarantine gate, Bundle.Add, commit) is nearly all
// the work there is.
const (
	ingestK     = 10
	ingestD     = 10000
	ingestConns = 2
	// ingestClean uploads close a round (the server's MinUpdates); the
	// payloads cycle through the codecs.
	ingestClean = 16
	// ingestSets distinct rounds of payloads are built and cycled; one
	// poisoned upload rides in the first, about 1% of all uploads.
	ingestSets = 6
	// ingestWarm is how long every pass runs before it starts timing.
	ingestWarm = time.Second
)

type ingestPayload struct {
	body     []byte
	client   string
	codec    string
	poisoned bool
}

// ingestSet is one round's uploads and the model the server must commit
// after it.
type ingestSet struct {
	poisoned []ingestPayload
	clean    []ingestPayload
	want     []float32
}

type ingest struct {
	t       *target
	sets    []ingestSet
	sources [][]float32 // the first set's clean updates, for the replay

	cleanSent, poisonSent int64
	rounds                int
	start                 flnet.Stats // the server's counters when the workload started
}

// ingestVector draws one update whose float64 bundle sum is exact in any
// order: entries are multiples of 2^-12 below 8 in magnitude, and every
// codec's decoded values keep at most 2^-28 resolution, so bundle
// results cannot depend on arrival order.
func ingestVector(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		x := math.Round(rng.NormFloat64()*4096) / 4096
		v[i] = float32(math.Max(-7.75, math.Min(7.75, x)))
	}
	return v
}

func newIngest(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	n := ingestK * ingestD
	w := &ingest{}
	for s := 0; s < ingestSets; s++ {
		var set ingestSet
		agg := &fedcore.Bundle{}
		for j := 0; j < ingestClean; j++ {
			src := ingestVector(rng, n)
			ci := j % len(codecs)
			body, err := fedcore.EncodeEnvelope(codecs[ci], src)
			if err != nil {
				return nil, fmt.Errorf("encode payload: %w", err)
			}
			dec, _, err := fedcore.DecodeEnvelope(body, n)
			if err != nil {
				return nil, fmt.Errorf("decode own payload: %w", err)
			}
			agg.Add(fedcore.Update{Params: dec})
			set.clean = append(set.clean, ingestPayload{body: body, client: "c" + strconv.Itoa(j), codec: codecNames[ci]})
			if s == 0 {
				w.sources = append(w.sources, src)
			}
		}
		set.want = make([]float32, n)
		agg.Commit(set.want)
		if s == 0 {
			bad := ingestVector(rng, n)
			bad[rng.Intn(n)] = float32(math.NaN())
			body, err := fedcore.EncodeEnvelope(codecs[0], bad)
			if err != nil {
				return nil, fmt.Errorf("encode poisoned payload: %w", err)
			}
			set.poisoned = append(set.poisoned, ingestPayload{body: body, client: "p0", codec: "raw", poisoned: true})
		}
		w.sets = append(w.sets, set)
	}
	t, err := newTarget(ingestK, ingestD, ingestClean, ingestConns)
	if err != nil {
		return nil, err
	}
	w.t = t
	w.start = t.srv.Stats()
	return w, nil
}

func (w *ingest) close() { w.t.close() }

// ingestJob is one upload for a worker; wait, when set, holds the upload
// back until the round's poisoned uploads are answered, so none of them
// can land after the round closes.
type ingestJob struct {
	p     ingestPayload
	round int
	op    int64
	wait  *sync.WaitGroup
	done  func(ingestResult)
}

type ingestResult struct {
	lat    time.Duration
	end    time.Time
	failed bool
	why    string
}

func (w *ingest) run(d time.Duration, tr *tracer) *pass {
	p := newPass()
	w.t.tr.Store(tr)
	defer w.t.tr.Store(nil)
	jobs := make(chan ingestJob)
	var workers sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		workers.Add(1)
		//fhdnn:allow goroutine one closed-loop connection per worker; joined by the deferred close(jobs) and workers.Wait
		go func() {
			defer workers.Done()
			for j := range jobs {
				if j.wait != nil {
					j.wait.Wait()
				}
				path := "/v1/update?round=" + strconv.Itoa(j.round)
				rep := w.t.do("POST", path, flnet.EnvelopeContentType, j.p.body, j.p.client, tr, "client.upload", j.op, 0)
				expect := statusAccepted
				if j.p.poisoned {
					expect = statusQuarantined
				}
				failed, why := classify(rep.status, rep.err, expect)
				j.done(ingestResult{lat: rep.end.Sub(rep.start), end: rep.end, failed: failed, why: why})
			}
		}()
	}
	defer func() {
		close(jobs)
		workers.Wait()
	}()

	statsBefore := w.t.srv.Stats()
	heap := startHeapSampler(5 * time.Millisecond)
	passStart := time.Now()
	var lats, roundS []float64
	var ends []time.Time
	var timedStart procSnap
	var mu sync.Mutex
	var op int64
	timing := false
	for {
		if !timing && time.Since(passStart) >= ingestWarm {
			timing, timedStart = true, takeProcSnap()
		}
		if timing && time.Since(timedStart.wall) >= d {
			break
		}
		round := w.t.srv.Round()
		set := w.sets[(round-1)%len(w.sets)]
		var all, poison sync.WaitGroup
		all.Add(len(set.poisoned) + len(set.clean))
		poison.Add(len(set.poisoned))
		record := func(res ingestResult, isPoison bool) {
			mu.Lock()
			p.ops.add(res.failed, res.why)
			if timing {
				lats = append(lats, ms(res.lat))
				ends = append(ends, res.end)
			}
			mu.Unlock()
			if isPoison {
				poison.Done()
			}
			all.Done()
		}
		roundStart := time.Now()
		for _, pp := range set.poisoned {
			op++
			jobs <- ingestJob{p: pp, round: round, op: op, done: func(res ingestResult) { record(res, true) }}
			w.poisonSent++
		}
		for i, cp := range set.clean {
			op++
			j := ingestJob{p: cp, round: round, op: op, done: func(res ingestResult) { record(res, false) }}
			if i == len(set.clean)-1 {
				j.wait = &poison
			}
			jobs <- j
			w.cleanSent++
		}
		all.Wait()
		w.rounds++
		if timing {
			roundS = append(roundS, time.Since(roundStart).Seconds())
		}
		w.checkRound(p, round, set)
	}
	end := takeProcSnap()
	statsAfter := w.t.srv.Stats()
	peak := heap.finish()

	sum := blocked(lats)
	sd := deltaStats(statsBefore, statsAfter)
	timedUploads := int64(len(lats))
	p.e2e["uploads_per_s"] = windowRate(ends, timedStart.wall, time.Second)
	p.e2e["upload_p50_ms"] = sum.P50
	p.e2e["upload_p99_ms"] = sum.P99
	p.e2e["round_s"] = median(roundS)
	p.e2e["bytes_per_round"] = float64(sd.bytes) / float64(sd.rounds)
	p.e2e["peak_heap_mb"] = peak
	p.cost = end.wall.Sub(timedStart.wall).Seconds() / float64(timedUploads)
	fmt.Printf("ingest-paper pass: %d uploads in %d rounds timed, upload_ms %s, blocks: p50 %.4f p99 %.4f\n",
		timedUploads, len(roundS), sum, sum.P50, sum.P99)

	pd := procBetween(timedStart, end, timedUploads)
	p.e2e["cpu_ms_per_upload"] = pd.CPUMsOp
	pd.report(p.layers)
	sd.report(p.layers, tr)
	return p
}

// checkRound compares the committed model with the bundle of the round's
// clean payloads, bit for bit. It runs at the round barrier, inside the
// timed window, at about 1% of a round's time.
func (w *ingest) checkRound(p *pass, round int, set ingestSet) {
	model, now := w.t.srv.Model()
	if now != round+1 {
		p.problemf("ingest-paper: round %d did not close (server at round %d)", round, now)
		return
	}
	if got := model.Flat(); len(got) != len(set.want) {
		p.problemf("ingest-paper: round %d model has %d values, want %d", round, len(got), len(set.want))
	} else if i := firstDiff(got, set.want); i >= 0 {
		p.problemf("ingest-paper: round %d model differs from the bundle of its payloads at %d: %v != %v",
			round, i, got[i], set.want[i])
	}
}

// firstDiff returns the first index where a and b, of equal length,
// differ bit for bit, or -1.
func firstDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func (w *ingest) replay(tr *tracer, into map[string]float64) error {
	return replayCodecs(tr, w.sources, into)
}

// finish checks the server's counters over the whole run: every clean
// upload accepted, every poisoned one quarantined as non-finite, one
// committed round per round driven.
func (w *ingest) finish() []string {
	var probs []string
	sd := deltaStats(w.start, w.t.srv.Stats())
	if sd.accepted != w.cleanSent {
		probs = append(probs, fmt.Sprintf("ingest-paper: %d clean uploads sent, server accepted %d", w.cleanSent, sd.accepted))
	}
	if sd.nonfinite != w.poisonSent || sd.quarantined != w.poisonSent {
		probs = append(probs, fmt.Sprintf("ingest-paper: %d poisoned uploads sent, server quarantined %d (%d as nonfinite)",
			w.poisonSent, sd.quarantined, sd.nonfinite))
	}
	if sd.outcomes() != w.cleanSent+w.poisonSent {
		probs = append(probs, fmt.Sprintf("ingest-paper: %d uploads sent, server booked %d outcomes",
			w.cleanSent+w.poisonSent, sd.outcomes()))
	}
	if sd.rounds != w.rounds {
		probs = append(probs, fmt.Sprintf("ingest-paper: drove %d rounds, server committed %d", w.rounds, sd.rounds))
	}
	return probs
}
