package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers one request at a time, like a wedged aggregation
// shard, and holds the request numbered stallAt for stall.
func stallServer(stallAt int64, stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
}

func driveOpenLoop(t *testing.T, srv *httptest.Server, due []time.Duration) openLoopResult {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()
	var errs atomic.Int64
	res := runOpenLoop(due, 2, time.Minute, func(i int, at time.Time) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			errs.Add(1)
			return
		}
		_ = resp.Body.Close()
	})
	if errs.Load() != 0 {
		t.Fatalf("%d requests failed", errs.Load())
	}
	return res
}

func TestOpenLoopChargesAStallToLaterSessions(t *testing.T) {
	const spacing = 2 * time.Millisecond
	const stall = 150 * time.Millisecond
	due := make([]time.Duration, 200)
	for i := range due {
		due[i] = time.Duration(i) * spacing
	}
	calm := stallServer(-1, 0)
	defer calm.Close()
	base := driveOpenLoop(t, calm, due)

	stalled := stallServer(20, stall)
	defer stalled.Close()
	res := driveOpenLoop(t, stalled, due)

	for _, r := range []openLoopResult{base, res} {
		for i, ran := range r.Ran {
			if !ran {
				t.Fatalf("session %d did not run", i)
			}
		}
	}
	// Sessions due while request 20 was held queue behind it; the one due
	// right after it waits out most of the stall even though its own
	// request is quick.
	if got := res.Latency[22]; got < stall/2 {
		t.Errorf("session due after the stall: latency %v, want at least %v", got, stall/2)
	}
	if got := base.Latency[22]; got >= stall/2 {
		t.Errorf("control run: session 22 latency %v", got)
	}
	lateStalled := summarize(ranMs(res.Late, res.Ran))
	lateCalm := summarize(ranMs(base.Late, base.Ran))
	if lateStalled.Tail < ms(stall)/3 || lateStalled.Tail <= lateCalm.Tail {
		t.Errorf("generator lateness: stalled p%g=%.2fms, calm p%g=%.2fms; the stall must show",
			lateStalled.TailP, lateStalled.Tail, lateCalm.TailP, lateCalm.Tail)
	}
	latStalled := summarize(ranMs(res.Latency, res.Ran))
	latCalm := summarize(ranMs(base.Latency, base.Ran))
	if latStalled.Tail <= latCalm.Tail {
		t.Errorf("latency tail: stalled %.2fms, calm %.2fms", latStalled.Tail, latCalm.Tail)
	}
}

func TestOpenLoopSkipsSessionsPastGiveUp(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	res := runOpenLoop(due, 1, 10*time.Millisecond, func(i int, at time.Time) {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	})
	if !res.Ran[0] || res.Ran[1] || res.Ran[2] || res.Missed != 2 {
		t.Fatalf("ran %v missed %d, want only session 0 run and 2 missed", res.Ran, res.Missed)
	}
}

func TestEvenArrivals(t *testing.T) {
	due := evenArrivals(1000, time.Second)
	if len(due) != 1000 || due[0] != 0 || due[999] != 999*time.Millisecond {
		t.Fatalf("%d arrivals from %v to %v, want 1000 from 0 to 999ms", len(due), due[0], due[len(due)-1])
	}
}
