package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is the process counters at one instant.
type procSnap struct {
	wall      time.Time
	cpu       time.Duration // user + system
	alloc     uint64        // cumulative heap bytes allocated
	mallocs   uint64
	pauseNs   uint64
	numGC     uint32
	gomaxproc int
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procSnap{
		wall: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs, numGC: ms.NumGC, gomaxproc: runtime.GOMAXPROCS(0),
	}
}

// procDelta is what the process spent between two snapshots, with ops
// the number of operations (uploads, or samples in fedtrain) it served.
type procDelta struct {
	CPUUtil      float64 // CPU seconds / (wall seconds * GOMAXPROCS)
	CPUMsOp      float64 // CPU milliseconds per operation
	AllocBytesOp float64
	AllocsOp     float64
	PauseMs      float64
	Cycles       float64
}

func procBetween(a, b procSnap, ops int64) procDelta {
	d := procDelta{
		PauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
		Cycles:  float64(b.numGC - a.numGC),
	}
	if wall := b.wall.Sub(a.wall).Seconds(); wall > 0 {
		d.CPUUtil = (b.cpu - a.cpu).Seconds() / (wall * float64(b.gomaxproc))
	}
	if ops > 0 {
		d.CPUMsOp = float64(b.cpu-a.cpu) / float64(time.Millisecond) / float64(ops)
		d.AllocBytesOp = float64(b.alloc-a.alloc) / float64(ops)
		d.AllocsOp = float64(b.mallocs-a.mallocs) / float64(ops)
	}
	return d
}

// heapSampler tracks the live-plus-unswept heap object bytes by polling
// runtime/metrics, which reads without stopping the world. It keeps the
// peak of each heapWindow; the peak of one window swings with where the
// GC cycles fall, so the run reports the median window peak.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // per window, written by the sampler goroutine until done
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapWindow = time.Second
)

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	start := time.Now()
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		v := float64(sample[0].Value.Uint64())
		i := int(time.Since(start) / heapWindow)
		for len(h.peaks) <= i {
			h.peaks = append(h.peaks, 0)
		}
		h.peaks[i] = max(h.peaks[i], v)
	}
	read()
	//fhdnn:allow goroutine heap poller; finish closes stop and waits for done
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the median window
// peak in MiB; the last, partial window counts only when it is the only
// one.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	peaks := h.peaks
	if len(peaks) > 1 {
		peaks = peaks[:len(peaks)-1]
	}
	return median(peaks) / (1 << 20)
}

// report stores the delta as the proc and gc layer metrics.
func (d procDelta) report(into map[string]float64) {
	into["proc.cpu_util"] = d.CPUUtil
	into["gc.alloc_bytes_per_op"] = d.AllocBytesOp
	into["gc.allocs_per_op"] = d.AllocsOp
	into["gc.pause_total_ms"] = d.PauseMs
	into["gc.cycles"] = d.Cycles
}
