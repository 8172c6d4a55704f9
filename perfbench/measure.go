package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"wavnet/internal/scenario"
)

// hostSnap is the host-side state read at both ends of a measured
// phase: wall clock, process CPU, and the allocator's cumulative totals.
type hostSnap struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
	gcs     uint32
}

func readHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

// processCPU is the user+system CPU time of the whole process, GC
// workers and idle scheduler threads included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simSnap holds the public counters of every layer the benchmark reads
// before and after the measured phase. Every field is a deterministic
// function of the seed.
type simSnap struct {
	events     uint64
	delivered  uint64
	dropped    uint64
	batched    uint64
	flushes    uint64
	brokerMsgs uint64
}

func readSim(w *scenario.World) simSnap {
	s := simSnap{
		events:    w.Eng.Dispatched(),
		delivered: w.Net.Delivered,
		dropped:   w.Net.LostWAN + w.Net.QueueDrops + w.Net.NoRoute + w.Net.PartitionDrops,
	}
	for _, m := range w.Machines {
		if m.WAV != nil {
			s.batched += m.WAV.BatchedFrames
			s.flushes += m.WAV.BatchFlushes
		}
	}
	for _, b := range w.Brokers {
		if h := w.Net.HostByIP(b.Addr().IP); h != nil {
			s.brokerMsgs += h.RecvPackets
		}
	}
	return s
}

func (s simSnap) sub(o simSnap) simSnap {
	return simSnap{
		events:     s.events - o.events,
		delivered:  s.delivered - o.delivered,
		dropped:    s.dropped - o.dropped,
		batched:    s.batched - o.batched,
		flushes:    s.flushes - o.flushes,
		brokerMsgs: s.brokerMsgs - o.brokerMsgs,
	}
}

// activeFlows sums the live flow-table entries over every WAVNet host.
func activeFlows(w *scenario.World) int {
	n := 0
	for _, m := range w.Machines {
		if m.WAV != nil {
			n += m.WAV.Flows().Active()
		}
	}
	return n
}

// heapSampler tracks the largest live heap a collection marked during
// a measured phase: the memory the simulation actually retains, without
// the garbage that happens to await the next cycle. runtime/metrics
// reads do not stop the world, so sampling every engine slice is cheap.
type heapSampler struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) observe() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

// percentile is the nearest-rank percentile of vs (0 for no samples).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer with nothing to count).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// jitter is the WAN delay noise every workload injects: it is what makes
// the seed reach the simulated system (the engine's random source draws
// each WAN transit's delay), without loss that would fail operations.
const jitter = 0.05

// wanBps is the emulated WAN's access rate, as in the paper's testbed.
const wanBps = 100e6

// newWorld builds n NATed machines on the emulated WAN with jitter.
func newWorld(seed int64, n int, bps float64) (*scenario.World, error) {
	w, err := scenario.Build(seed, scenario.EmulatedWANSpecs(n, bps), nil)
	if err != nil {
		return nil, err
	}
	w.Net.JitterFrac = jitter
	return w, nil
}
