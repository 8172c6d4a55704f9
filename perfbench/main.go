// Command hostcost measures what it costs the host to simulate a fixed
// amount of simulated work on one of three workloads (bulk_tcp,
// web_small, control_churn). Each repetition builds a fresh world from
// the seed, converges its initial tenant specs (the set-up), runs the
// workload's measured phase and checks its outputs. Repetitions run
// until the time budget is spent; per-op host costs are the median over
// repetitions. Untraced measured phases also run a reference kernel
// between engine slices, and host time is reported in units of that
// kernel as well (see calibrate.go). With -trace the measured phases
// instead run under the CPU profiler and the allocation profiler, and
// the samples are split by layer (see attrib.go).
//
// Usage, from this directory:
//
//	go run . -workload bulk_tcp -seed 1 -seconds 10 [-trace]
//
// The last line of standard output is one JSON object; run.py turns it
// into the benchmark's result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"

	"wavnet/internal/scenario"
	"wavnet/internal/sim"
)

// workloads maps a workload name to its repetition function.
var workloads = map[string]func(seed int64, m *meter) error{
	"bulk_tcp":      bulkTCP,
	"web_small":     webSmall,
	"control_churn": controlChurn,
}

// setupOnlyBuilds is how many extra set-ups each run makes before its
// measured repetitions: they warm the heap and code paths, and give
// setup_s a median over many samples even when few repetitions fit.
const setupOnlyBuilds = 15

// minReps is the fewest measured repetitions a run makes, whatever its
// time budget, so every median has at least three samples.
const minReps = 3

func main() {
	workload := flag.String("workload", "", "bulk_tcp, web_small or control_churn")
	seed := flag.Int64("seed", 1, "seed for the world and the workload's inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to spend on measured repetitions")
	trace := flag.Bool("trace", false, "profile the measured phases and split their cost by layer")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "hostcost: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *trace {
		// Sample allocations finely enough that every layer gets
		// hundreds of samples per repetition; set before any work runs.
		runtime.MemProfileRate = 64 << 10
	}
	res, err := measure(run, *seed, time.Duration(*seconds*float64(time.Second)), *trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostcost: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res.Workload = *workload
	res.Seed = *seed
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostcost: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's summary, printed as the last line.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Reps      int               `json:"reps"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"checks"`
	E2E       map[string]metric `json:"e2e"`
	Layers    map[string]metric `json:"layers"`
	Raw       map[string]metric `json:"raw"`
	Env       map[string]any    `json:"env"`
}

// measure runs set-ups and repetitions of one workload until the budget
// is spent and summarizes them.
func measure(run func(int64, *meter) error, seed int64, budget time.Duration, trace bool) (*result, error) {
	var setups, builds []float64
	for i := 0; i < setupOnlyBuilds; i++ {
		m := &meter{setupOnly: true}
		if err := run(seed, m); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, m.setupS)
		builds = append(builds, m.buildS)
	}
	var prof *profile
	var cal *calibrator
	if trace {
		prof = newProfile()
	} else {
		cal = newCalibrator()
	}
	var reps []*meter
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		m := &meter{prof: prof, cal: cal}
		if err := run(seed, m); err != nil {
			return nil, err
		}
		m.w = nil // the summary needs the figures, not the world
		setups = append(setups, m.setupS)
		builds = append(builds, m.buildS)
		reps = append(reps, m)
	}
	res := &result{
		Traced:  trace,
		Reps:    len(reps),
		Correct: true,
		E2E:     make(map[string]metric),
		Layers:  make(map[string]metric),
		Raw:     make(map[string]metric),
		Env: map[string]any{
			"go":         runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
		},
	}
	// Every repetition of one seed must simulate exactly the same
	// thing; the digest covers only simulated outputs.
	res.Digest = reps[0].digest()
	for i, m := range reps {
		if d := m.digest(); d != res.Digest {
			res.Correct = false
			res.Checks = append(res.Checks, fmt.Sprintf("repetition %d digest %s differs from %s", i, d, res.Digest))
		}
		res.Checks = append(res.Checks, m.failures...)
		if len(m.failures) > 0 {
			res.Correct = false
		}
		res.Attempted += m.attempted
		res.Failed += m.attempted - m.ops
	}
	res.Checks = dedupe(res.Checks)
	summarize(res, reps, setups, builds)
	if prof != nil {
		ops := 0
		for _, m := range reps {
			ops += m.ops
		}
		if err := prof.report(res.Layers, float64(ops)); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	return res, nil
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// medianOf applies f to every repetition and returns the median.
func medianOf(reps []*meter, f func(m *meter) float64) float64 {
	vs := make([]float64, len(reps))
	for i, m := range reps {
		vs[i] = f(m)
	}
	return median(vs)
}

func summarize(res *result, reps []*meter, setups, builds []float64) {
	e, l, raw := res.E2E, res.Layers, res.Raw
	perOp := func(m *meter, v float64) float64 { return ratio(v, float64(m.ops)) }
	// Host cost (medians over repetitions). Time in units of the
	// reference kernel is reported only by untraced runs; raw times
	// are printed but not gated, as they follow the machine's speed.
	if !res.Traced {
		e["host_cost_per_op"] = metric{medianOf(reps, func(m *meter) float64 { return ratio(perOp(m, m.wallS), m.refS) }), "refs"}
		raw["ref_kernel_us"] = metric{medianOf(reps, func(m *meter) float64 { return m.refS * 1e6 }), "us"}
	}
	raw["ops_per_host_s"] = metric{medianOf(reps, func(m *meter) float64 { return ratio(float64(m.ops), m.wallS) }), "1/s"}
	raw["cpu_ms_per_op"] = metric{medianOf(reps, func(m *meter) float64 { return perOp(m, m.cpuS*1e3) }), "ms"}
	e["mallocs_per_op"] = metric{medianOf(reps, func(m *meter) float64 { return perOp(m, float64(m.mallocs)) }), "count"}
	e["alloc_kb_per_op"] = metric{medianOf(reps, func(m *meter) float64 { return perOp(m, float64(m.allocBytes)/1024) }), "KiB"}
	e["peak_heap_mb"] = metric{medianOf(reps, func(m *meter) float64 { return float64(m.peakHeap) / (1 << 20) }), "MiB"}
	e["setup_s"] = metric{median(setups), "s"}
	// Simulated fidelity: identical in every repetition of one seed.
	r := reps[0]
	e["success_ratio"] = metric{ratio(float64(r.ops), float64(r.attempted)), "ratio"}
	e["sim_goodput_mbps"] = metric{ratio(float64(r.payload)*8/1e6, r.simS), "Mbps"}
	e["sim_req_per_s"] = metric{ratio(float64(r.ops), r.simS), "1/s"}
	e["sim_req_p50_ms"] = metric{percentile(r.latMs, 50), "ms"}
	e["sim_req_p99_ms"] = metric{percentile(r.latMs, 99), "ms"}
	// The control-plane figures describe the measured phase's applies;
	// a workload whose measured phase applies nothing reports its
	// set-up's.
	ctl := func(m *meter) *ctlStats {
		if m.ctl.applies == 0 {
			return &m.setupCtl
		}
		return &m.ctl
	}
	c := ctl(r)
	e["sim_apply_p50_s"] = metric{percentile(c.growS, 50), "s"}
	e["sim_apply_p95_s"] = metric{percentile(c.growS, 95), "s"}

	// Per-layer counters and host-time spans.
	l["sim.events_per_op"] = metric{perOp(r, float64(r.sim.events)), "events"}
	l["sim.ns_per_event"] = metric{medianOf(reps, func(m *meter) float64 { return ratio(m.wallS*1e9, float64(m.sim.events)) }), "ns"}
	l["sim.pending_max"] = metric{float64(r.pendingMax), "events"}
	l["netsim.pkts_per_op"] = metric{perOp(r, float64(r.sim.delivered+r.sim.dropped)), "pkts"}
	l["netsim.drop_ratio"] = metric{ratio(float64(r.sim.dropped), float64(r.sim.delivered+r.sim.dropped)), "ratio"}
	l["core.frames_per_batch"] = metric{ratio(float64(r.sim.batched), float64(r.sim.flushes)), "frames"}
	l["core.flows_active"] = metric{float64(r.flowsActive), "flows"}
	l["ipstack.segs_per_op"] = metric{perOp(r, float64(r.segs)), "segs"}
	l["ipstack.retx_ratio"] = metric{ratio(float64(r.retx), float64(r.segsOut)), "ratio"}
	l["rendezvous.msgs_per_admit"] = metric{ratio(float64(c.brokerMsgs), float64(c.admits)), "msgs"}
	l["rendezvous.relay_ratio"] = metric{ratio(float64(r.relayed), float64(r.connects)), "ratio"}
	l["vpc.actions_per_apply"] = metric{ratio(float64(c.actions), float64(c.applies)), "actions"}
	l["vpc.apply_host_ms_p50"] = metric{medianOf(reps, func(m *meter) float64 { return median(ctl(m).applyHostMs) }), "ms"}
	l["dhcp.release_ratio"] = metric{ratio(float64(r.releases), float64(c.leasedEvictions)), "ratio"}
	l["obs.scrape_host_ms_p50"] = metric{medianOf(reps, func(m *meter) float64 { return median(m.scrapeHostMs) }), "ms"}
	l["obs.series"] = metric{float64(r.series), "series"}
	l["scenario.build_host_ms"] = metric{median(builds) * 1e3, "ms"}
	l["runtime.gc_cycles_per_op"] = metric{medianOf(reps, func(m *meter) float64 { return perOp(m, float64(m.gcs)) }), "cycles"}
}

// meter records one repetition: the set-up span, the measured phase's
// host cost and layer counters, and the workload's simulated outputs.
type meter struct {
	setupOnly bool
	prof      *profile
	cal       *calibrator // nil in traced runs

	buildStart time.Time
	buildS     float64
	setupS     float64

	w        *scenario.World
	hostAt   hostSnap
	simAt    simSnap
	heap     *heapSampler
	simStart sim.Time

	// Host cost of the measured phase, reference kernel excluded, and
	// the kernel's mean duration over the phase.
	wallS, cpuS float64
	refS        float64
	mallocs     uint64
	allocBytes  uint64
	gcs         uint32
	peakHeap    uint64

	// Simulated outputs (deterministic per seed).
	ops, attempted int
	payload        int64
	simS           float64
	latMs          []float64
	sim            simSnap
	pendingMax     int
	flowsActive    int
	segs, segsOut  uint64
	retx           uint64
	relayed        uint64
	connects       uint64
	releases       uint64
	series         int

	// Control-plane work of the set-up and of the measured phase.
	brokersAtBuild uint64
	setupCtl, ctl  ctlStats

	// Host-time spans around calls into the obs layer.
	scrapeHostMs []float64

	failures []string
}

// ctlStats counts the applies of one phase: how many ran, the
// simulated durations of those that admitted members, their host times
// and actions, and the messages the brokers received.
type ctlStats struct {
	applies     int
	growS       []float64
	applyHostMs []float64
	actions     int
	// leasedEvictions are the evictions from DHCP-addressed networks:
	// each should send the network's DHCP server one release.
	leasedEvictions int
	admits          int
	brokerMsgs      uint64
}

func (m *meter) failf(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// startBuild marks the beginning of the set-up (scenario.Build).
func (m *meter) startBuild() { m.buildStart = time.Now() }

// built marks the world's construction as done.
func (m *meter) built(w *scenario.World) {
	m.buildS = time.Since(m.buildStart).Seconds()
	m.brokersAtBuild = readSim(w).brokerMsgs
}

// setupDone marks the initial specs as converged; later applies count
// toward the measured phase.
func (m *meter) setupDone(w *scenario.World) {
	m.setupS = time.Since(m.buildStart).Seconds()
	m.setupCtl = m.ctl
	m.setupCtl.brokerMsgs = readSim(w).brokerMsgs - m.brokersAtBuild
	m.ctl = ctlStats{}
}

// begin opens the measured phase on w: the heap is collected first so
// every repetition starts from the same live set.
func (m *meter) begin(w *scenario.World) {
	runtime.GC()
	m.w = w
	m.heap = newHeapSampler()
	if m.prof != nil {
		m.prof.start()
	}
	m.simAt = readSim(w)
	m.simStart = w.Eng.Now()
	m.hostAt = readHost()
	m.heap.observe()
	if m.cal != nil {
		m.cal.reset()
	}
}

// end closes the measured phase; simEnd is the simulated instant the
// workload's last operation completed.
func (m *meter) end(simEnd sim.Time) {
	h := readHost()
	s := readSim(m.w)
	m.heap.observe()
	if m.prof != nil {
		m.prof.stop()
	}
	m.wallS = (h.wall.Sub(m.hostAt.wall) - m.calSpent()).Seconds()
	m.cpuS = (h.cpu - m.hostAt.cpu - m.calSpent()).Seconds()
	if m.cal != nil {
		m.refS = m.cal.refS()
	}
	m.mallocs = h.mallocs - m.hostAt.mallocs
	m.allocBytes = h.alloc - m.hostAt.alloc
	m.gcs = h.gcs - m.hostAt.gcs
	m.peakHeap = m.heap.peak
	m.sim = s.sub(m.simAt)
	m.ctl.brokerMsgs = m.sim.brokerMsgs
	m.simS = simEnd.Sub(m.simStart).Seconds()
	m.flowsActive = activeFlows(m.w)
	if m.prof != nil {
		m.prof.addAllocs(m.allocBytes)
	}
}

// sample is called between engine slices of the measured phase.
func (m *meter) sample() {
	if p := m.w.Eng.Pending(); p > m.pendingMax {
		m.pendingMax = p
	}
	m.heap.observe()
	if m.cal != nil {
		m.cal.tick()
	}
}

// calSpent is the reference kernel's host time in this measured phase.
func (m *meter) calSpent() time.Duration {
	if m.cal == nil {
		return 0
	}
	return m.cal.spent
}

// drive runs the engine in slices until done reports true or the
// simulated budget is spent, sampling between slices.
func (m *meter) drive(slice, budget sim.Duration, done func() bool) bool {
	for spent := sim.Duration(0); !done(); spent += slice {
		if spent >= budget {
			return false
		}
		m.w.Eng.RunFor(slice)
		m.sample()
	}
	return true
}

// digest hashes every simulated output of the repetition. Host-side
// quantities are left out: two runs of one seed, traced or not, must
// produce the same digest.
func (m *meter) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d attempted=%d payload=%d sim=%.9f events=%d delivered=%d dropped=%d "+
		"batched=%d flushes=%d pending=%d flows=%d segs=%d/%d retx=%d "+
		"relayed=%d connects=%d releases=%d series=%d",
		m.ops, m.attempted, m.payload, m.simS, m.sim.events, m.sim.delivered, m.sim.dropped,
		m.sim.batched, m.sim.flushes, m.pendingMax, m.flowsActive, m.segs, m.segsOut,
		m.retx, m.relayed, m.connects, m.releases, m.series)
	for _, v := range m.latMs {
		fmt.Fprintf(&b, " l%.6f", v)
	}
	for _, c := range []ctlStats{m.setupCtl, m.ctl} {
		fmt.Fprintf(&b, " ctl=%d/%d/%d/%d/%d", c.applies, c.actions, c.leasedEvictions, c.admits, c.brokerMsgs)
		for _, v := range c.growS {
			fmt.Fprintf(&b, " a%.9f", v)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}
