package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"nearest module frame from the leaf", []string{
			"runtime.memmove",
			"wavnet/internal/ipstack.(*Conn).Write",
			"wavnet/internal/apps.TTCP",
			"wavnet/internal/sim.(*Engine).Spawn.func1",
		}, "ipstack"},
		{"malloc is charged to its caller", []string{
			"runtime.mallocgcSmallNoscan",
			"runtime.mallocgc",
			"runtime.growslice",
			"wavnet/internal/core.(*Host).enqueueFrame",
			"wavnet/internal/ether.(*Bridge).forward",
		}, "core"},
		{"closures and nested packages", []string{
			"wavnet/internal/rendezvous/wire.decode.func2",
			"wavnet/internal/vpc.(*Manager).Reconcile",
		}, "rendezvous"},
		{"container/heap is the event queue", []string{
			"container/heap.down",
			"container/heap.Pop",
			"wavnet/internal/netsim.(*Network).wanTransit",
		}, "sim"},
		{"event queue methods called by container/heap", []string{
			"wavnet/internal/sim.eventHeap.Less",
			"container/heap.up",
			"container/heap.Push",
			"wavnet/internal/sim.(*Engine).At",
		}, "sim"},
		{"GC worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, "runtime.gc"},
		{"GC assist inside a layer stays with the layer", []string{
			"runtime.scanobject",
			"runtime.gcAssistAlloc1",
			"runtime.mallocgc",
			"wavnet/internal/netsim.(*Network).Send",
		}, "netsim"},
		{"idle scheduler", []string{
			"runtime.futex",
			"runtime.futexsleep",
			"runtime.notesleep",
			"runtime.stopm",
			"runtime.findRunnable",
			"runtime.schedule",
		}, "runtime.sched"},
		{"goroutine hand-off with no wavnet frame", []string{
			"runtime.futex",
			"runtime.futexwakeup",
			"runtime.wakep",
			"runtime.goready.func1",
		}, "runtime.sched"},
		{"the benchmark's own code", []string{
			"runtime.mapassign",
			"main.webSmall.func3",
			"main.measure",
			"main.main",
		}, "bench"},
		{"a module frame wins over hostcost below it", []string{
			"wavnet/internal/obs.(*AlertEngine).Eval",
			"wavnet/internal/scenario.(*World).Scrape",
			"main.controlChurn.func2",
		}, "obs"},
		{"the benchmark's code in its test binary", []string{
			"wavnet/perfbench.spin",
			"wavnet/perfbench.TestParseProfile",
			"testing.tRunner",
		}, "bench"},
		{"empty stack", nil, "runtime.sched"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestInMalloc(t *testing.T) {
	if !inMalloc([]string{"runtime.memclrNoHeapPointers", "runtime.mallocgcLarge", "runtime.mallocgc", "main.f"}) {
		t.Error("a stack through mallocgc is not counted as malloc")
	}
	if inMalloc([]string{"runtime.memmove", "wavnet/internal/ipstack.(*Conn).Write"}) {
		t.Error("a stack without mallocgc is counted as malloc")
	}
}

// TestParseProfile decodes a real CPU profile written by runtime/pprof
// and checks that this function's own frames come out, leaf first.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	d, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.types) != 2 || d.types[1] != "cpu" {
		t.Fatalf("sample types %q, want [samples cpu]", d.types)
	}
	found := false
	for _, s := range d.samples {
		fr := d.frames(s.locs)
		if len(fr) > 0 && strings.HasSuffix(fr[0], ".spin") && layerOf(fr) == "bench" {
			found = true
		}
		if len(s.values) != 2 || s.values[1] <= 0 {
			t.Fatalf("sample values %v", s.values)
		}
	}
	if !found {
		t.Fatal("no sample with spin as its leaf")
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += uint64(i) * 2654435761
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {1, 1}, {100, 5}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
