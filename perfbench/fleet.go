package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/flnet"
)

// fleet-toy: an open loop of client sessions due at a fixed rate on
// a toy model, each GET /v1/round, GET /v1/model, POST /v1/update like
// flnet.LocalTrainer.Participate. Uploads are small and rounds close
// every few sessions, so per-request overhead and round turnover
// dominate, and model reads run alongside update writes.
const (
	fleetK          = 2
	fleetD          = 512
	fleetMinUpdates = 8
	fleetConns      = 2
	fleetRate       = 500.0 // sessions offered per second, evenly spaced
	fleetPayloads   = 64
	// fleetWarm is the head of every pass's schedule whose sessions run
	// but are not timed.
	fleetWarm = time.Second
	// fleetGiveUp drops sessions the generator reaches this late, which
	// bounds a run against a server that cannot keep up.
	fleetGiveUp = 5 * time.Second
)

type fleet struct {
	t        *target
	payloads [][]byte
	sources  [][]float32
	start    flnet.Stats
	nextOp   int64

	// Replies over every pass, for the accounting check.
	posts, got202, got409 int64
}

func newFleet(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fleet{}
	n := fleetK * fleetD
	for i := 0; i < fleetPayloads; i++ {
		src := make([]float32, n)
		for j := range src {
			src[j] = float32(rng.NormFloat64())
		}
		body, err := fedcore.EncodeEnvelope(codecs[i%len(codecs)], src)
		if err != nil {
			return nil, fmt.Errorf("encode payload: %w", err)
		}
		w.payloads = append(w.payloads, body)
		w.sources = append(w.sources, src)
	}
	t, err := newTarget(fleetK, fleetD, fleetMinUpdates, fleetConns)
	if err != nil {
		return nil, err
	}
	w.t = t
	w.start = t.srv.Stats()
	return w, nil
}

func (w *fleet) close() { w.t.close() }

// fleetRec collects what the sessions of one pass saw.
type fleetRec struct {
	mu        sync.Mutex
	ops       tally
	fetchMs   []float64   // GET /v1/model, timed sessions
	uploadMs  []float64   // the update upload, retry included, timed sessions
	postEnds  []time.Time // POSTs of timed sessions, when answered
	allPosts  int64
	got202    int64
	got409    int64
	roundDone map[int]time.Time // latest 202 per round
}

func (r *fleetRec) op(failed bool, why string) {
	r.mu.Lock()
	r.ops.add(failed, why)
	r.mu.Unlock()
}

// session runs one client session; timed sessions count towards the
// pass's figures.
func (w *fleet) session(i int, op int64, due time.Time, timed bool, tr *tracer, rec *fleetRec) {
	root := tr.beginAt("fleet.session", op, 0, due)
	defer tr.end(root)
	rep := w.t.do(http.MethodGet, "/v1/round", "", nil, "", tr, "client.round", op, root)
	failed, why := classify(rep.status, rep.err, http.StatusOK)
	rec.op(failed, why)
	if failed {
		return
	}
	rep = w.t.do(http.MethodGet, "/v1/model", "", nil, "", tr, "client.model", op, root)
	failed, why = classify(rep.status, rep.err, http.StatusOK)
	round, err := headerRound(rep.header)
	if !failed && err != nil {
		failed, why = true, err.Error()
	}
	rec.op(failed, why)
	if failed {
		return
	}
	if timed {
		rec.mu.Lock()
		rec.fetchMs = append(rec.fetchMs, ms(rep.end.Sub(rep.start)))
		rec.mu.Unlock()
	}
	body := w.payloads[i%len(w.payloads)]
	client := "s" + strconv.FormatInt(op, 10)
	// A stale reply gets one retry in the round it names, as Participate
	// refetches and retries. The upload's latency runs from its first
	// POST to its last reply.
	var uploadStart time.Time
	for attempt := 0; attempt < 2; attempt++ {
		path := "/v1/update?round=" + strconv.Itoa(round)
		rep = w.t.do(http.MethodPost, path, flnet.EnvelopeContentType, body, client, tr, "client.upload", op, root)
		if attempt == 0 {
			uploadStart = rep.start
		}
		failed, why = classify(rep.status, rep.err, statusAccepted, statusStale)
		if !failed && rep.status == statusStale {
			if round, err = headerRound(rep.header); err != nil {
				failed, why = true, err.Error()
			}
		}
		rec.mu.Lock()
		rec.ops.add(failed, why)
		rec.allPosts++
		if timed {
			rec.postEnds = append(rec.postEnds, rep.end)
		}
		switch {
		case failed:
		case rep.status == statusAccepted:
			rec.got202++
			if rep.end.After(rec.roundDone[round]) {
				rec.roundDone[round] = rep.end
			}
		default:
			rec.got409++
		}
		last := failed || rep.status == statusAccepted || attempt == 1
		if last && timed && !failed {
			rec.uploadMs = append(rec.uploadMs, ms(rep.end.Sub(uploadStart)))
		}
		rec.mu.Unlock()
		if last {
			return
		}
	}
}

func (w *fleet) run(d time.Duration, tr *tracer) *pass {
	p := newPass()
	w.t.tr.Store(tr)
	defer w.t.tr.Store(nil)
	due := evenArrivals(fleetRate, fleetWarm+d)
	rec := &fleetRec{roundDone: make(map[int]time.Time)}
	opBase := w.nextOp
	w.nextOp += int64(len(due))

	statsBefore := w.t.srv.Stats()
	heap := startHeapSampler(5 * time.Millisecond)
	before := takeProcSnap()
	res := runOpenLoop(due, fleetConns, fleetGiveUp, func(i int, at time.Time) {
		w.session(i, opBase+int64(i)+1, at, due[i] >= fleetWarm, tr, rec)
	})
	end := takeProcSnap()
	statsAfter := w.t.srv.Stats()
	peak := heap.finish()

	w.posts += rec.allPosts
	w.got202 += rec.got202
	w.got409 += rec.got409
	p.ops = rec.ops
	for m := 0; m < res.Missed; m++ {
		p.ops.add(true, "session dropped: generator fell behind by more than "+fleetGiveUp.String())
	}

	// Timed sessions are those due after the warm-up.
	timedRan := make([]bool, len(due))
	timedN := 0
	for i := range due {
		timedRan[i] = res.Ran[i] && due[i] >= fleetWarm
		if timedRan[i] {
			timedN++
		}
	}
	windowStart := res.Start.Add(fleetWarm)
	session := blocked(ranMs(res.Latency, timedRan))
	late := blocked(ranMs(res.Late, timedRan))
	upload := blocked(rec.uploadMs)
	fetch := blocked(rec.fetchMs)
	sd := deltaStats(statsBefore, statsAfter)
	p.e2e["uploads_per_s"] = windowRate(rec.postEnds, windowStart, time.Second)
	p.e2e["upload_p50_ms"] = upload.P50
	p.e2e["upload_p99_ms"] = upload.P99
	p.e2e["round_s"] = roundGaps(rec.roundDone, windowStart)
	p.e2e["bytes_per_round"] = float64(sd.bytes) / float64(sd.rounds)
	p.e2e["peak_heap_mb"] = peak
	p.cost = upload.P50
	p.layers["session_p50_ms"] = session.P50
	p.layers["session_p99_ms"] = session.P99
	p.layers["fetch_p99_ms"] = fetch.P99
	p.layers["loadgen.late_p99_ms"] = late.P99
	fmt.Printf("fleet-toy pass: %d sessions timed; upload_ms %s; session_ms (from due) %s; fetch_ms %s; late_ms %s; block medians: upload p50 %.4f p99 %.4f, session p50 %.4f p99 %.4f\n",
		timedN, upload, session, fetch, late, upload.P50, upload.P99, session.P50, session.P99)

	pd := procBetween(before, end, rec.allPosts)
	p.e2e["cpu_ms_per_upload"] = pd.CPUMsOp
	pd.report(p.layers)
	sd.report(p.layers, tr)
	return p
}

// roundGaps is the median time between consecutive round closes seen
// after from, where a round closed when its last accepted upload was
// answered (the server answers the closing upload after the commit).
func roundGaps(done map[int]time.Time, from time.Time) float64 {
	rounds := make([]int, 0, len(done))
	for r := range done {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	var gaps []float64
	for i := 1; i < len(rounds); i++ {
		prev, cur := done[rounds[i-1]], done[rounds[i]]
		if rounds[i] == rounds[i-1]+1 && prev.After(from) {
			gaps = append(gaps, cur.Sub(prev).Seconds())
		}
	}
	return median(gaps)
}

func (w *fleet) replay(tr *tracer, into map[string]float64) error {
	return replayCodecs(tr, w.sources, into)
}

// finish checks the server's books: every POST sent is in exactly one
// outcome counter, the replies match those counters, and the rounds
// committed are the accepted uploads over the round size.
func (w *fleet) finish() []string {
	var probs []string
	st := w.t.srv.Stats()
	sd := deltaStats(w.start, st)
	if sd.outcomes() != w.posts {
		probs = append(probs, fmt.Sprintf("fleet-toy: %d POSTs sent, server booked %d outcomes", w.posts, sd.outcomes()))
	}
	if sd.accepted+sd.duplicates != w.got202 {
		probs = append(probs, fmt.Sprintf("fleet-toy: %d uploads answered 202, server booked %d accepted + %d duplicates",
			w.got202, sd.accepted, sd.duplicates))
	}
	if sd.rejected != w.got409 {
		probs = append(probs, fmt.Sprintf("fleet-toy: %d uploads answered 409, server booked %d rejected", w.got409, sd.rejected))
	}
	if want := int(st.UpdatesAccepted / fleetMinUpdates); st.Round-1 != want {
		probs = append(probs, fmt.Sprintf("fleet-toy: %d uploads accepted make %d rounds, server committed %d",
			st.UpdatesAccepted, want, st.Round-1))
	}
	return probs
}
