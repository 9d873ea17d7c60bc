package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// latChunk is how many latency samples one recorder chunk holds. Recorders
// grow chunk by chunk so sample storage costs a fixed 4 bytes per op instead
// of the copy-on-grow spikes of one large slice.
const latChunk = 1 << 12

// missSample marks an op that failed: it counts as beyond any latency limit.
const missSample = math.MaxUint32

// latencies records one caller's per-op latencies in nanoseconds.
type latencies struct {
	chunks [][]uint32
	cur    []uint32
}

func (l *latencies) add(d time.Duration) {
	ns := d.Nanoseconds()
	if ns >= missSample {
		ns = missSample - 1
	}
	l.push(uint32(ns))
}

func (l *latencies) addMiss() { l.push(missSample) }

func (l *latencies) push(v uint32) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.chunks = append(l.chunks, l.cur)
		}
		l.cur = make([]uint32, 0, latChunk)
	}
	l.cur = append(l.cur, v)
}

// sortedSamples merges every caller's samples into one sorted slice.
func sortedSamples(ls []*latencies) []uint32 {
	var all []uint32
	for _, l := range ls {
		for _, c := range l.chunks {
			all = append(all, c...)
		}
		all = append(all, l.cur...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// quantileUs returns the nearest-rank q-quantile of sorted nanosecond
// samples, in microseconds. A quantile that lands on a failed op reports
// the miss sentinel's value, which is far beyond any real latency.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx]) / 1e3
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// heapPeak samples the live heap-object bytes every few milliseconds and
// keeps the maximum. runtime/metrics reads do not stop the world, unlike
// runtime.ReadMemStats.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}
