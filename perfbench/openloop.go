package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// evenArrivals spaces sessions 1/rate apart over horizon. Even spacing
// rather than Poisson keeps the generator's own timer slack (a sleeping
// goroutine wakes up to a millisecond late) from queueing sessions
// behind each other, which would otherwise set the latency tail.
func evenArrivals(rate float64, horizon time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	due := make([]time.Duration, 0, int(horizon/gap))
	for d := time.Duration(0); d < horizon; d += gap {
		due = append(due, d)
	}
	return due
}

// openLoopResult is what the generator observed for each session, in
// due order: Latency runs from when the session was due to when it
// ended, so a stall charges its wait to every session queued behind it
// (a session whose slot was idle counts from when the slot's timer
// woke); Late is how long after its due time the session started.
// Missed counts sessions dropped because their slot fell more than
// giveUp behind.
type openLoopResult struct {
	Latency []time.Duration
	Late    []time.Duration
	Ran     []bool
	Missed  int
	Start   time.Time
}

// runOpenLoop runs session i, due at due[i] after the start, on slot
// i % slots: each slot is one connection serving every slots-th session
// in turn, whatever happened to earlier sessions. A slot that is free
// before a session is due sleeps until then; a slot still busy when the
// session falls due starts it late, and the session's latency counts
// from its due time. It waits for every started session to end. A
// session the slot reaches more than giveUp late is skipped and counted
// as missed, which bounds the run when the system cannot keep up.
func runOpenLoop(due []time.Duration, slots int, giveUp time.Duration, session func(i int, at time.Time)) openLoopResult {
	res := openLoopResult{
		Latency: make([]time.Duration, len(due)),
		Late:    make([]time.Duration, len(due)),
		Ran:     make([]bool, len(due)),
	}
	var missed atomic.Int64
	res.Start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		//fhdnn:allow goroutine one open-loop slot per connection; joined by wg.Wait before runOpenLoop returns
		go func() {
			defer wg.Done()
			for i := w; i < len(due); i += slots {
				at := res.Start.Add(due[i])
				from := at
				if wait := time.Until(at); wait > 0 {
					// The timer's overshoot (up to a millisecond) is the
					// generator's lateness, not the system's, so the
					// session's latency counts from the wake-up.
					time.Sleep(wait)
					from = time.Now()
				}
				begin := time.Now()
				if begin.Sub(at) > giveUp {
					missed.Add(1)
					continue
				}
				session(i, at)
				end := time.Now()
				res.Late[i] = begin.Sub(at)
				res.Latency[i] = end.Sub(from)
				res.Ran[i] = true
			}
		}()
	}
	wg.Wait()
	res.Missed = int(missed.Load())
	return res
}

// ranMs collects the durations of the sessions that ran, in ms.
func ranMs(ds []time.Duration, ran []bool) []float64 {
	out := make([]float64, 0, len(ds))
	for i, d := range ds {
		if ran[i] {
			out = append(out, ms(d))
		}
	}
	return out
}
