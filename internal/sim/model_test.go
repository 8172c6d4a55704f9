package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The reference model for TestEngineMatchesModel: a list of pending
// entries kept in (at, seq) order, where seq is assigned at each
// scheduling call, plus just enough proc state (parked, interrupt flag,
// queued sleep wake-up) to predict which queued wake-ups resume a proc
// and which find nothing to do.

type entryKind int

const (
	kEvent    entryKind = iota // Schedule; who = event id
	kTimer                     // Timer.Reset; who = timer index
	kTicker                    // Ticker tick; who = ticker index
	kDeadline                  // a proc's Park deadline timer; who = proc
	kStart                     // Spawn's first activation; who = proc
	kWake                      // Sleep's wake-up; who = proc
	kUnpark                    // Unpark; who = proc
	kInt                       // Interrupt; who = proc
)

type mEntry struct {
	at   Time
	seq  uint64
	kind entryKind
	who  int
}

type mProc struct {
	parked, interrupted bool
	wake                *mEntry // the current Sleep's queued wake-up
	deadline            *mEntry // the current Park's deadline timer
}

type model struct {
	now        Time
	seq        uint64
	q          []*mEntry
	dispatched uint64
	timers     []*mEntry // armed entry per timer, nil when idle
	tickers    []*mEntry // armed entry per ticker, nil when stopped
	procs      []mProc
	flushers   []int
	inFlush    bool // the last callback observed was a flusher
	fail       func(format string, args ...any)
}

func (m *model) add(d Duration, kind entryKind, who int) *mEntry {
	if d < 0 {
		d = 0
	}
	m.seq++
	en := &mEntry{at: m.now.Add(d), seq: m.seq, kind: kind, who: who}
	m.q = append(m.q, en)
	return en
}

func (m *model) remove(en *mEntry) {
	if i := slices.Index(m.q, en); i >= 0 {
		m.q = slices.Delete(m.q, i, i+1)
	}
}

// popMin removes the earliest entry by (at, seq).
func (m *model) popMin() *mEntry {
	best := 0
	for i, en := range m.q {
		b := m.q[best]
		if en.at < b.at || en.at == b.at && en.seq < b.seq {
			best = i
		}
	}
	en := m.q[best]
	m.q = slices.Delete(m.q, best, best+1)
	return en
}

// runs applies a popped entry's dispatch to the model and reports
// whether it runs test code (a callback, or a proc resuming).
func (m *model) runs(en *mEntry) bool {
	switch en.kind {
	case kTimer:
		m.timers[en.who] = nil
	case kTicker:
		m.tickers[en.who] = nil
	case kDeadline:
		m.procs[en.who].deadline = nil
	case kWake:
		m.procs[en.who].wake = nil
	case kUnpark:
		return m.procs[en.who].parked
	case kInt:
		p := &m.procs[en.who]
		return p.parked && p.interrupted
	}
	return true
}

// next pops entries up to the next one that runs test code and checks
// it fires at now.
func (m *model) next(now Time) *mEntry {
	for {
		if len(m.q) == 0 {
			m.fail("engine ran a callback at %v; model has nothing queued", now)
		}
		en := m.popMin()
		m.dispatched++
		if len(m.flushers) > 0 && en.at > m.now {
			m.fail("clock advanced to %v with %d flushers of %v pending", en.at, len(m.flushers), m.now)
		}
		if m.runs(en) {
			if en.at != now {
				m.fail("model entry %+v due at %v, engine at %v", *en, en.at, now)
			}
			m.now, m.inFlush = now, false
			return en
		}
		m.now = en.at
	}
}

// drain pops the entries due by horizon after the engine stopped; none
// may run test code.
func (m *model) drain(horizon Time) {
	for len(m.q) > 0 {
		en := m.popMin()
		if en.at > horizon {
			return
		}
		m.dispatched++
		if m.runs(en) {
			m.fail("model expected %+v at %v; the engine never ran it", *en, en.at)
		}
	}
}

// modelRun drives one randomized scenario on an engine and the model in
// lockstep. Every callback pops the model's next entry and compares.
type modelRun struct {
	t       *testing.T
	e       *Engine
	m       *model
	rng     *rand.Rand
	budget  int // random operations left
	nextID  int
	timers  []*Timer
	tickers []*Ticker
	periods []Duration
	procs   []*Proc
	// deadlines holds one timer per proc that unparks it, bounding
	// each Park.
	deadlines []*Timer
}

// errModel stops a scenario at its first mismatch. It wraps ErrStopped
// so that a proc raising it exits cleanly.
var errModel = fmt.Errorf("sim model mismatch: %w", ErrStopped)

// fail reports a mismatch, stops the engine and unwinds the callback.
func (r *modelRun) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Errorf(format, args...)
	r.e.Stop()
	panic(errModel)
}

func (r *modelRun) delay() Duration {
	// Few distinct delays, so same-instant ties are common.
	return Duration(r.rng.Intn(4)) * time.Millisecond
}

func (r *modelRun) event(id int) func() {
	return func() {
		en := r.m.next(r.e.Now())
		if en.kind != kEvent || en.who != id {
			r.fail("at %v engine ran event %d, model expected %+v", r.e.Now(), id, *en)
		}
		r.ops(-1)
	}
}

// ops performs zero to two random operations; self is the calling proc,
// or -1 outside procs.
func (r *modelRun) ops(self int) {
	for n := r.rng.Intn(3); n > 0 && r.budget > 0; n-- {
		r.budget--
		switch op := r.rng.Intn(8); op {
		case 0, 1:
			d := r.delay()
			r.nextID++
			r.m.add(d, kEvent, r.nextID)
			r.e.Schedule(d, r.event(r.nextID))
		case 2:
			i, d := r.rng.Intn(len(r.timers)), r.delay()
			if r.timers[i].Active() != (r.m.timers[i] != nil) {
				r.fail("timer %d Active() = %v, model disagrees", i, r.timers[i].Active())
			}
			if r.m.timers[i] != nil {
				r.m.remove(r.m.timers[i])
			}
			r.m.timers[i] = r.m.add(d, kTimer, i)
			r.timers[i].Reset(d)
		case 3:
			i := r.rng.Intn(len(r.timers))
			want := r.m.timers[i] != nil
			if want {
				r.m.remove(r.m.timers[i])
				r.m.timers[i] = nil
			}
			if got := r.timers[i].Stop(); got != want {
				r.fail("timer %d Stop() = %v, model %v", i, got, want)
			}
		case 4:
			i := r.rng.Intn(len(r.tickers))
			if r.m.tickers[i] != nil {
				r.m.remove(r.m.tickers[i])
				r.m.tickers[i] = nil
			}
			r.periods[i] = -1 // stopped: no re-arm after the tick in progress
			r.tickers[i].Stop()
		case 5, 6:
			q := r.rng.Intn(len(r.procs))
			if q == self {
				continue
			}
			mp := &r.m.procs[q]
			if op == 5 {
				if mp.parked {
					r.m.add(0, kUnpark, q)
				}
				r.procs[q].Unpark()
			} else {
				mp.interrupted = true
				if mp.parked {
					r.m.add(0, kInt, q)
				}
				r.procs[q].Interrupt()
			}
		case 7:
			r.nextID++
			id := r.nextID
			r.m.flushers = append(r.m.flushers, id)
			r.e.AtTimeEnd(func() { r.flushed(id) })
		}
	}
}

func (r *modelRun) flushed(id int) {
	m := r.m
	if len(m.flushers) == 0 || m.flushers[0] != id {
		r.fail("flusher %d ran; model expected %v", id, m.flushers)
	}
	if r.e.Now() != m.now {
		r.fail("flusher %d ran at %v, registered at %v", id, r.e.Now(), m.now)
	}
	if !m.inFlush {
		// The first flusher of a pass runs only once nothing else is
		// due at this instant: whatever the model still holds for now
		// was dispatched without running test code.
		for len(m.q) > 0 {
			en := m.popMin()
			if en.at > m.now {
				m.q = append(m.q, en)
				break
			}
			m.dispatched++
			if m.runs(en) {
				r.fail("flusher %d ran with %+v still due", id, *en)
			}
		}
	}
	m.flushers = m.flushers[1:]
	m.inFlush = true
	r.ops(-1)
}

func (r *modelRun) timer(i int) func() {
	return func() {
		en := r.m.next(r.e.Now())
		if en.kind != kTimer || en.who != i {
			r.fail("at %v engine fired timer %d, model expected %+v", r.e.Now(), i, *en)
		}
		r.ops(-1)
	}
}

func (r *modelRun) tick(i int) func() {
	return func() {
		en := r.m.next(r.e.Now())
		if en.kind != kTicker || en.who != i {
			r.fail("at %v engine ticked %d, model expected %+v", r.e.Now(), i, *en)
		}
		r.ops(-1)
		// The ticker re-arms after its callback returns.
		if r.periods[i] >= 0 {
			r.m.tickers[i] = r.m.add(r.periods[i], kTicker, i)
		}
	}
}

func (r *modelRun) deadline(i int) func() {
	return func() {
		en := r.m.next(r.e.Now())
		if en.kind != kDeadline || en.who != i {
			r.fail("at %v engine fired deadline %d, model expected %+v", r.e.Now(), i, *en)
		}
		if r.m.procs[i].parked {
			r.m.add(0, kUnpark, i)
		}
		r.procs[i].Unpark()
	}
}

func (r *modelRun) proc(i int) func(*Proc) {
	return func(p *Proc) {
		en := r.m.next(r.e.Now())
		if en.kind != kStart || en.who != i {
			r.fail("proc %d started; model expected %+v", i, *en)
		}
		mp := &r.m.procs[i]
		for {
			r.ops(i)
			// Mostly Sleep; sometimes Park under a deadline timer that
			// unparks it, so a wake-up left queued by an earlier Sleep
			// would show as a wrong resume.
			park := r.rng.Intn(4) == 0
			d := r.delay() + time.Millisecond
			wait := func() bool {
				if park {
					return p.Park()
				}
				return p.Sleep(d)
			}
			if mp.interrupted {
				// Interrupted before it started: the wait returns at
				// once and queues nothing.
				if wait() {
					r.fail("proc %d waited through a pending interrupt", i)
				}
				p.ClearInterrupt()
				mp.interrupted = false
				continue
			}
			mp.parked = true
			if park {
				mp.deadline = r.m.add(d, kDeadline, i)
				r.deadlines[i].Reset(d)
			} else {
				mp.wake = r.m.add(d, kWake, i)
			}
			ok := wait()
			en := r.m.next(r.e.Now())
			if en.kind < kWake || en.who != i {
				r.fail("proc %d resumed; model expected %+v", i, *en)
			}
			mp.parked = false
			want := !mp.interrupted
			if mp.wake != nil {
				// Woken early: Sleep cancels its wake-up.
				r.m.remove(mp.wake)
				mp.wake = nil
			}
			if mp.deadline != nil {
				r.m.remove(mp.deadline)
				mp.deadline = nil
			}
			r.deadlines[i].Stop()
			if ok != want {
				r.fail("proc %d wait (park %v) = %v, model %v (woken by %+v)", i, park, ok, want, *en)
			}
			if !ok {
				p.ClearInterrupt()
				mp.interrupted = false
			}
		}
	}
}

// TestEngineMatchesModel runs randomized mixes of Schedule (zero and
// non-zero delays, same-instant ties), Timer.Reset on armed and idle
// timers, Timer.Stop, Ticker, Proc.Sleep with Unpark and Interrupt, and
// AtTimeEnd against the reference model: the same dispatch order and
// the same Dispatched() count.
func TestEngineMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			e := NewEngine(seed)
			r := &modelRun{t: t, e: e, m: &model{}, rng: rand.New(rand.NewSource(seed)), budget: 400}
			r.m.fail = r.fail
			defer func() {
				if v := recover(); v != nil && v != errModel {
					panic(v)
				}
			}()
			for i := 0; i < 4; i++ {
				r.timers = append(r.timers, NewTimer(e, r.timer(i)))
				r.m.timers = append(r.m.timers, nil)
			}
			for i := 0; i < 2; i++ {
				period := Duration(3+2*i) * time.Millisecond
				r.periods = append(r.periods, period)
				r.m.tickers = append(r.m.tickers, r.m.add(period, kTicker, i))
				r.tickers = append(r.tickers, NewTicker(e, period, r.tick(i)))
			}
			r.m.procs = make([]mProc, 3)
			for i := range r.m.procs {
				r.deadlines = append(r.deadlines, NewTimer(e, r.deadline(i)))
				r.m.add(0, kStart, i)
				r.procs = append(r.procs, e.Spawn(fmt.Sprint("p", i), r.proc(i)))
			}
			r.ops(-1)
			horizon := Time(200 * time.Millisecond)
			e.RunUntil(horizon)
			if t.Failed() {
				return
			}
			r.m.drain(horizon)
			if e.Dispatched() != r.m.dispatched {
				t.Fatalf("Dispatched() = %d, model %d", e.Dispatched(), r.m.dispatched)
			}
			if r.budget > 50 {
				t.Fatalf("scenario too short: %d of 400 operations unused", r.budget)
			}
			e.Stop()
		})
	}
}
