package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Layer attribution. A profile sample is charged to the nearest frame,
// counted from the leaf, that belongs to a wavnet/internal/<module>
// package, so malloc, memmove and goroutine hand-off are charged to the
// layer that called them. container/heap is the event queue's heap and
// is charged to sim. A sample with no such frame is a GC worker's
// (runtime.gc), hostcost's own code (bench), or scheduler and idle time
// (runtime.sched).

// layers are the modules reported one by one; every other module and
// hostcost's own code are summed into "other".
var layers = []string{"sim", "netsim", "nat", "core", "ether", "ipstack", "dhcp", "rendezvous", "vpc", "obs", "apps"}

const internalPrefix = "wavnet/internal/"

// layerOf attributes one stack, given as function names leaf first.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, internalPrefix) {
			rest := fn[len(internalPrefix):]
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "container/heap.") {
			return "sim"
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "runtime.gc"
		}
	}
	for _, fn := range frames {
		// hostcost is package main, named by its import path in its
		// test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "wavnet/perfbench.") {
			return "bench"
		}
	}
	return "runtime.sched"
}

// inMalloc reports whether the allocator is anywhere on the stack.
func inMalloc(frames []string) bool {
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return true
		}
	}
	return false
}

// profile accumulates the traced measured phases: CPU samples per
// layer from runtime/pprof, and sampled allocation bytes per layer from
// runtime.MemProfile, diffed across each phase.
type profile struct {
	cpu      bytes.Buffer
	cpuNs    map[string]float64
	mallocNs float64
	allocs   map[string]float64 // sampled bytes, unbiased by the sample rate
	exact    float64            // allocated bytes over the phases, from MemStats
	memAt    map[[32]uintptr][2]int64
	err      error
}

func newProfile() *profile {
	return &profile{cpuNs: make(map[string]float64), allocs: make(map[string]float64)}
}

func (p *profile) start() {
	p.memAt = memRecords()
	p.cpu.Reset()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *profile) stop() {
	pprof.StopCPUProfile()
	if err := p.addCPU(p.cpu.Bytes()); err != nil && p.err == nil {
		p.err = err
	}
	// A collection publishes the phase's allocation records.
	runtime.GC()
	rate := float64(runtime.MemProfileRate)
	for stk, now := range memRecords() {
		was := p.memAt[stk]
		b, n := float64(now[0]-was[0]), float64(now[1]-was[1])
		if b <= 0 || n <= 0 {
			continue
		}
		// Undo the sampler's bias against small objects, as pprof does.
		b /= 1 - math.Exp(-b/n/rate)
		p.allocs[layerOf(frameNames(stk[:]))] += b
	}
}

// addAllocs adds one phase's exact allocated bytes; the sampled split
// apportions them.
func (p *profile) addAllocs(bytes uint64) { p.exact += float64(bytes) }

// memRecords snapshots the cumulative allocation profile by stack.
func memRecords() map[[32]uintptr][2]int64 {
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	out := make(map[[32]uintptr][2]int64, len(recs))
	for _, r := range recs {
		v := out[r.Stack0]
		out[r.Stack0] = [2]int64{v[0] + r.AllocBytes, v[1] + r.AllocObjects}
	}
	return out
}

// frameNames symbolizes a call stack, inlined frames expanded, leaf
// first.
func frameNames(pcs []uintptr) []string {
	n := 0
	for n < len(pcs) && pcs[n] != 0 {
		n++
	}
	var out []string
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// addCPU charges every sample of one gzipped CPU profile to its layer.
func (p *profile) addCPU(data []byte) error {
	prof, err := parseProfile(data)
	if err != nil {
		return err
	}
	vi := len(prof.types) - 1
	for i, t := range prof.types {
		if t == "cpu" {
			vi = i
		}
	}
	for _, s := range prof.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		ns := float64(s.values[vi])
		frames := prof.frames(s.locs)
		p.cpuNs[layerOf(frames)] += ns
		if inMalloc(frames) {
			p.mallocNs += ns
		}
	}
	return nil
}

// report adds the per-layer split, per operation, to the layer metrics.
// It fails if any phase's profile could not be taken or read.
func (p *profile) report(out map[string]metric, ops float64) error {
	if p.err != nil {
		return p.err
	}
	var sampled float64
	for _, b := range p.allocs {
		sampled += b
	}
	cpuUs := func(ns float64) float64 { return ratio(ns/1e3, ops) }
	allocKB := func(b float64) float64 { return ratio(ratio(b, sampled)*p.exact/1024, ops) }
	cpuOther, allocOther := 0.0, sampled
	for _, ns := range p.cpuNs {
		cpuOther += ns
	}
	for _, l := range layers {
		out[l+".cpu_us_per_op"] = metric{cpuUs(p.cpuNs[l]), "us"}
		out[l+".alloc_kb_per_op"] = metric{allocKB(p.allocs[l]), "KiB"}
		cpuOther -= p.cpuNs[l]
		allocOther -= p.allocs[l]
	}
	cpuOther -= p.cpuNs["runtime.gc"] + p.cpuNs["runtime.sched"]
	out["other.cpu_us_per_op"] = metric{cpuUs(cpuOther), "us"}
	out["other.alloc_kb_per_op"] = metric{allocKB(allocOther), "KiB"}
	out["runtime.gc_cpu_us_per_op"] = metric{cpuUs(p.cpuNs["runtime.gc"]), "us"}
	out["runtime.sched_cpu_us_per_op"] = metric{cpuUs(p.cpuNs["runtime.sched"]), "us"}
	out["runtime.malloc_cpu_us_per_op"] = metric{cpuUs(p.mallocNs), "us"}
	return nil
}

// ---- a minimal reader for the pprof profile.proto format ----

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofData struct {
	types     []string
	samples   []pprofSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]string   // function id -> name
}

// frames names a sample's stack, leaf first, inlined frames expanded.
func (d *pprofData) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range d.locations[l] {
			out = append(out, d.functions[f])
		}
	}
	return out
}

var errProto = errors.New("malformed profile")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next reads one field: its number, wire type, and either its varint
// value or its length-delimited bytes.
func (p *pbuf) next() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		n, err := p.varint()
		if err != nil || uint64(len(p.b)) < n {
			return 0, 0, 0, nil, errProto
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		return 0, 0, 0, nil, errProto
	}
	return num, wire, v, data, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// fields calls fn for every field of msg.
func fields(msg []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	p := pbuf{msg}
	for len(p.b) > 0 {
		num, wire, v, data, err := p.next()
		if err != nil {
			return err
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// parseProfile decodes the fields of a gzipped profile.proto message
// that attribution needs: sample types, samples, locations, functions
// and the string table.
func parseProfile(gz []byte) (*pprofData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	d := &pprofData{locations: make(map[uint64][]uint64), functions: make(map[uint64]string)}
	var typeIdx []uint64
	funcName := make(map[uint64]uint64)
	var strs []string
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return fields(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s pprofSample
			var vals []uint64
			err := fields(data, func(n, w int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, b)
				case 2:
					vals, err = uints(vals, w, v, b)
				}
				return err
			})
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			d.samples = append(d.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			d.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, t := range typeIdx {
		d.types = append(d.types, str(t))
	}
	for id, name := range funcName {
		d.functions[id] = str(name)
	}
	return d, nil
}
