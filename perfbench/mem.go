package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// memCounters are the Go runtime's cumulative allocation and collector
// counters.
type memCounters struct {
	allocs, allocBytes, cycles uint64
	pauseNs                    uint64
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readMem() memCounters {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		cycles:     s[2].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// heapSampler reads the live heap — the bytes the latest collection
// found reachable — every 2 ms while a window runs. The live heap,
// unlike the heap size, does not depend on when the collector happened
// to start. The median of the readings is the live heap the process
// held for half the window; it repeats closely from run to run, where
// the peak is one extreme reading.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	live  []float64 // MiB
}

const heapLiveMetric = "/gc/heap/live:bytes"

func readLiveMB() float64 {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			h.live = append(h.live, readLiveMB())
			select {
			case <-h.stopc:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median and the peak of the live
// heap in MiB, and the number of readings. A collection forced here
// makes the final live heap a reading.
func (h *heapSampler) stop() (median, peak float64, n int) {
	close(h.stopc)
	h.wg.Wait()
	runtime.GC()
	h.live = append(h.live, readLiveMB())
	for _, v := range h.live {
		peak = max(peak, v)
	}
	return sample(h.live).percentile(50), peak, len(h.live)
}

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
