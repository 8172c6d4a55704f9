package sim

import (
	"errors"
	"fmt"
)

// ErrStopped is the panic value used to unwind a parked process when the
// engine shuts down. Process bodies should not recover it; the spawn
// wrapper does.
var ErrStopped = errors.New("sim: engine stopped")

// Proc is a simulation process: a goroutine whose execution is interleaved
// with the event loop so that at most one simulation goroutine runs at any
// instant. Inside a Proc, code may call Sleep, Park and the blocking
// helpers of higher-level packages (sockets, queues) as if they were
// ordinary blocking calls.
type Proc struct {
	eng    *Engine
	name   string
	resume chan procSignal
	yield  chan struct{}
	parked bool
	dead   bool

	// sleep is the wake-up timer of Sleep, stopped whenever Sleep
	// returns so that an early wake leaves nothing queued.
	sleep Timer
	// unparkFn and interruptFn are the wake-up callbacks of Unpark and
	// Interrupt, bound once at Spawn.
	unparkFn, interruptFn func()

	// interrupted is the sticky interrupt flag: set by Interrupt, it
	// makes every Park/Sleep return false — without blocking — until
	// the process acknowledges it with ClearInterrupt (or dies). The
	// stickiness is what lets an interrupt cross nested wait loops: a
	// park buried three calls deep returns false, and so does every
	// park above it as the stack unwinds, so no loop can accidentally
	// swallow a stop request by re-parking.
	interrupted bool
}

type procSignal int

const (
	sigRun procSignal = iota
	sigStop
	sigInterrupt
)

// Spawn starts fn as a new process immediately (at the current virtual
// time, as a scheduled event). The name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan procSignal),
		yield:  make(chan struct{}),
	}
	p.sleep.init(e, func() { p.activate(sigRun) })
	p.unparkFn = func() {
		if !p.dead && p.parked {
			p.activate(sigRun)
		}
	}
	p.interruptFn = func() {
		// Re-check the flag: if the process consumed the interrupt
		// (ClearInterrupt) after being woken by its real signal, this
		// stale wake-up must not interrupt an unrelated later park.
		if !p.dead && p.parked && p.interrupted {
			p.activate(sigInterrupt)
		}
	}
	e.procs[p] = struct{}{}
	go func() {
		sig := <-p.resume // wait for first activation
		if sig != sigStop {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if err, ok := r.(error); !ok || !errors.Is(err, ErrStopped) {
							panic(r) // real bug: re-panic
						}
					}
				}()
				fn(p)
			}()
		}
		p.dead = true
		delete(e.procs, p)
		p.yield <- struct{}{} // give control back to the engine
	}()
	e.Schedule(0, func() { p.activate(sigRun) })
	return p
}

// activate transfers control to the process goroutine and blocks until it
// parks or finishes. Must be called from engine (event) context.
func (p *Proc) activate(sig procSignal) {
	if p.dead {
		return
	}
	prev := p.eng.current
	p.eng.current = p
	p.resume <- sig
	<-p.yield
	p.eng.current = prev
}

// park suspends the process, returning control to the event loop. It
// resumes when some event calls activate. Returns the signal used to
// resume.
func (p *Proc) park() procSignal {
	p.parked = true
	p.yield <- struct{}{}
	sig := <-p.resume
	p.parked = false
	if sig == sigStop {
		panic(ErrStopped)
	}
	return sig
}

// unwind forces a parked process to panic with ErrStopped so that its
// deferred functions run and the goroutine exits. Engine use only.
func (p *Proc) unwind() {
	if p.dead || !p.parked {
		return
	}
	p.resume <- sigStop
	<-p.yield
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for virtual duration d. It returns true if
// the sleep completed, false if an interrupt is pending — in which case
// the sleep is skipped entirely (a pending interrupt means the process
// has been asked to wind down; sleeping on would just delay it). An
// Unpark ends the sleep early, and Sleep then returns true; either way
// its wake-up is cancelled when it returns.
func (p *Proc) Sleep(d Duration) bool {
	p.checkContext("Sleep")
	if p.interrupted {
		return false
	}
	p.sleep.Reset(d)
	p.park()
	p.sleep.Stop()
	return !p.interrupted
}

// Park suspends the process until another event calls Unpark (or the
// engine stops). Returns true on a normal Unpark, false if an interrupt
// is pending (in which case a park with the flag already set returns
// immediately). The interrupt stays pending — see Interrupt.
func (p *Proc) Park() bool {
	p.checkContext("Park")
	if p.interrupted {
		return false
	}
	p.park()
	return !p.interrupted
}

// Unpark schedules the process to resume at the current virtual time.
// It may be called from event context or from another process. Calling
// Unpark on a process that is not parked is a no-op (the signal is not
// remembered); use higher-level queues for lossless signalling.
func (p *Proc) Unpark() {
	if p.dead || !p.parked {
		return
	}
	p.eng.Schedule(0, p.unparkFn)
}

// Interrupt asks the process to wind down: the sticky interrupted flag
// is set immediately, every subsequent Park/Sleep returns false without
// blocking, and a currently parked process is woken at the current
// virtual time. The flag persists until the process calls ClearInterrupt
// (for interrupts it originated itself, e.g. its own receive deadline)
// or exits — so an interrupt delivered while the process is parked deep
// inside a helper still reaches the outermost loop.
func (p *Proc) Interrupt() {
	if p.dead {
		return
	}
	p.interrupted = true
	if !p.parked {
		return // the flag is observed at the next Park/Sleep
	}
	p.eng.Schedule(0, p.interruptFn)
}

// Interrupted reports whether an interrupt is pending on the process.
// Long-running loop bodies use it as a cheap cancellation check between
// blocking calls.
func (p *Proc) Interrupted() bool { return p.interrupted }

// ClearInterrupt consumes a pending interrupt. Only the code that knows
// the interrupt's origin should clear it — typically a deadline helper
// that used Interrupt on its own process to bound a wait and must not
// let its private wake-up look like an external stop request.
func (p *Proc) ClearInterrupt() { p.interrupted = false }

// Dead reports whether the process has finished.
func (p *Proc) Dead() bool { return p.dead }

func (p *Proc) checkContext(op string) {
	if p.eng.current != p {
		panic(fmt.Sprintf("sim: %s called on proc %q from outside its own context", op, p.name))
	}
}

// WaitQueue is a FIFO of parked processes, the building block for
// condition-style blocking (socket buffers, channels, semaphores).
// The zero value is ready to use.
type WaitQueue struct {
	waiters []*Proc
}

// Wait parks the calling process until Signal/Broadcast wakes it.
// Returns false if the wait was interrupted.
func (q *WaitQueue) Wait(p *Proc) bool {
	q.waiters = append(q.waiters, p)
	ok := p.Park()
	if !ok {
		// Remove ourselves if still queued (interrupt before signal).
		for i, w := range q.waiters {
			if w == p {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				break
			}
		}
	}
	return ok
}

// Signal wakes the oldest waiter, if any.
func (q *WaitQueue) Signal() {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if !w.dead {
			w.Unpark()
			return
		}
	}
}

// Broadcast wakes all current waiters.
func (q *WaitQueue) Broadcast() {
	ws := q.waiters
	q.waiters = nil
	for _, w := range ws {
		if !w.dead {
			w.Unpark()
		}
	}
}

// Len reports the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Semaphore is a counting semaphore for processes.
type Semaphore struct {
	n int
	q WaitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{n: n} }

// Acquire takes a permit, blocking the process until one is available.
// Returns false if interrupted.
func (s *Semaphore) Acquire(p *Proc) bool {
	for s.n == 0 {
		if !s.q.Wait(p) {
			return false
		}
	}
	s.n--
	return true
}

// Release returns a permit and wakes one waiter.
func (s *Semaphore) Release() {
	s.n++
	s.q.Signal()
}
