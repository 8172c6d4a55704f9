// Package sim implements the discrete-event simulation (DES) engine that
// every WAVNet substrate runs on.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, sequence). Events are plain callbacks; a coroutine layer (Proc)
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
	"container/heap"
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

// Event is a scheduled callback. The zero value is invalid; events are
// created by Engine.Schedule and friends.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. Create one with NewEngine; it is
// not safe for concurrent use from multiple OS threads (the coroutine
// layer serializes everything internally).
type Engine struct {
	now     Time
	queue   eventHeap
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

// Schedule queues fn to run after delay d (clamped to zero) and returns a
// handle that can be cancelled.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At queues fn to run at absolute time t (clamped to now).
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled || ev.index < 0 {
		if ev != nil {
			ev.cancelled = true
		}
		return
	}
	ev.cancelled = true
	heap.Remove(&e.queue, ev.index)
}

// Step executes the single next event. It reports false when the queue is
// empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancelled {
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatched++
		ev.fn()
		if len(e.flushers) > 0 {
			e.runTimeEndFlushers()
		}
		return true
	}
	return false
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
	// Drop cancelled heads so a dead same-instant event cannot defer
	// the flush past the timestamp boundary.
	for len(e.queue) > 0 && e.queue[0].cancelled {
		heap.Pop(&e.queue)
	}
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
		// Peek.
		next := e.queue[0]
		if next.cancelled {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > t {
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
