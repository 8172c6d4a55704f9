// Package sim implements the discrete-event simulation (DES) engine that
// every WAVNet substrate runs on.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, sequence). Every scheduling call — Schedule, At, Timer.Reset
// and everything built on them (Ticker, Proc.Sleep, Unpark, Spawn) —
// takes exactly one sequence number at the moment it is made, so the
// order is total and the same for a given seed. Schedule and At are
// fire-and-forget: they return nothing, and their events are recycled
// through a free list. Timer is the only cancellable handle: it embeds
// its event, so Reset and Stop re-key or remove it in place without
// allocating. Events are plain callbacks; a coroutine layer (Proc)
// lets higher-level code — TCP sockets, MPI ranks, benchmark drivers —
// be written in a blocking style while the whole simulation remains
// single-threaded and bit-for-bit deterministic for a given seed.
//
// Only one goroutine ever executes simulation logic at a time: the engine
// hands control to a process and waits for it to park or finish before
// dispatching the next event. Determinism therefore depends only on the
// event ordering, which is total.
//
// Every package's world state relies on this contract: forwarding
// tables, flow tables, counters, traces and metrics registries are plain
// maps and fields with no locks or atomics. Code outside the engine
// reads them only between engine runs (after RunFor/RunUntil/Run
// returns); the channel hand-offs between the engine and its procs
// order every other access.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for convenience so callers need not
// import both packages.
type Duration = time.Duration

// Common duration constants re-exported for callers.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// event is one queued callback. Events made by Schedule and At come
// from the engine's free list and return to it just before their
// callback runs; a Timer embeds its own event and keeps it.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	index  int  // heap index, -1 when not queued
	pooled bool // owned by the free list, not by a Timer
}

// before is the queue order: time first, then scheduling sequence.
// Sequence numbers are unique, so the order is total and the pop order
// depends only on the keys, never on the heap's layout.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is a discrete-event simulator. Create one with NewEngine; it is
// not safe for concurrent use from multiple OS threads (the coroutine
// layer serializes everything internally).
type Engine struct {
	now     Time
	queue   []*event // 4-ary min-heap on (at, seq)
	free    []*event // recycled Schedule/At events
	seq     uint64
	rng     *rand.Rand
	stopped bool
	running bool

	// current proc executing, if any (used by the coroutine layer).
	current *Proc
	// live procs, for shutdown.
	procs map[*Proc]struct{}

	// flushers run once after the last event of the current virtual
	// timestamp, before the clock advances (see AtTimeEnd).
	flushers []func()

	dispatched uint64
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (events or procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Dispatched reports how many events have been executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay d (clamped to zero). The event
// cannot be cancelled; use a Timer for anything that may need to be
// stopped or re-armed.
func (e *Engine) Schedule(d Duration, fn func()) {
	e.At(e.now.Add(d), fn)
}

// At queues fn to run at absolute time t (clamped to now). Like
// Schedule, it is fire-and-forget.
func (e *Engine) At(t Time, fn func()) {
	e.push(e.alloc(fn), t)
}

// alloc takes an event off the free list, or makes one.
func (e *Engine) alloc(fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{pooled: true}
	}
	ev.fn = fn
	return ev
}

// stamp keys ev for time t (clamped to now) under the next sequence
// number.
func (e *Engine) stamp(ev *event, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.at, ev.seq = t, e.seq
}

// push queues ev at t.
func (e *Engine) push(ev *event, t Time) {
	e.stamp(ev, t)
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// rekey moves the queued event ev to t: the same key a remove followed
// by push would give.
func (e *Engine) rekey(ev *event, t Time) {
	e.stamp(ev, t)
	e.fix(ev.index)
}

// remove takes the queued event ev out of the heap.
func (e *Engine) remove(ev *event) {
	i := ev.index
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	ev.index = -1
	if i != n {
		e.queue[i] = last
		last.index = i
		e.fix(i)
	}
}

func (e *Engine) fix(i int) {
	if i > 0 && e.queue[i].before(e.queue[(i-1)/4]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
}

// Step executes the single next event. It reports false when the queue is
// empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.remove(ev)
	if ev.at > e.now {
		e.now = ev.at
	}
	fn := ev.fn
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	e.dispatched++
	fn()
	if len(e.flushers) > 0 {
		e.runTimeEndFlushers()
	}
	return true
}

// AtTimeEnd registers fn to run once after the last already-queued event
// of the current virtual timestamp has executed, before the clock
// advances. It is the hook the tunnel egress batcher uses to coalesce
// every frame emitted "during this instant" into one wire packet per
// destination. Flushers run in registration order (deterministic) and
// may schedule new events — including events at the current timestamp,
// which then run after the flush. The registration is one-shot.
func (e *Engine) AtTimeEnd(fn func()) {
	e.flushers = append(e.flushers, fn)
}

// runTimeEndFlushers runs the pending AtTimeEnd hooks if no runnable
// event remains at the current timestamp.
func (e *Engine) runTimeEndFlushers() {
	if len(e.queue) > 0 && e.queue[0].at <= e.now {
		return // more events still due at this instant
	}
	for i := 0; i < len(e.flushers); i++ {
		fn := e.flushers[i]
		e.flushers[i] = nil
		fn()
	}
	e.flushers = e.flushers[:0]
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled later remain queued.
func (e *Engine) RunUntil(t Time) {
	e.running = true
	defer func() { e.running = false }()
	for !e.stopped && len(e.queue) > 0 {
		if e.queue[0].at > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor executes events for virtual duration d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts the engine: no further events run, and all parked processes
// are unwound (their deferred functions execute). Safe to call from event
// or process context.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	// Unwind parked procs so their goroutines exit.
	for p := range e.procs {
		if p.parked && !p.dead {
			p.unwind()
		}
	}
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
