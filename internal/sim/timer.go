package sim

// Timer is a restartable one-shot timer, the building block for protocol
// retransmission and keepalive logic, and the engine's only cancellable
// handle. It embeds its queue event, so arming, re-arming and stopping
// it never allocate. The zero value is invalid; create with NewTimer.
type Timer struct {
	eng *Engine
	ev  event
}

// NewTimer returns a stopped timer that will run fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer {
	t := &Timer{}
	t.init(e, fn)
	return t
}

func (t *Timer) init(e *Engine, fn func()) {
	t.eng = e
	t.ev = event{fn: fn, index: -1}
}

// Reset (re)arms the timer to fire after d (clamped to zero). Any
// previously pending firing is superseded. Either way the firing takes
// a fresh sequence number, so it orders exactly like a new Schedule.
func (t *Timer) Reset(d Duration) {
	at := t.eng.now.Add(d)
	if t.ev.index >= 0 {
		t.eng.rekey(&t.ev, at)
		return
	}
	t.eng.push(&t.ev, at)
}

// Stop cancels a pending firing, if any. It reports whether a firing was
// pending.
func (t *Timer) Stop() bool {
	if t.ev.index < 0 {
		return false
	}
	t.eng.remove(&t.ev)
	return true
}

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return t.ev.index >= 0 }

// Ticker invokes fn every period until stopped. Create with NewTicker.
type Ticker struct {
	t      Timer
	period Duration
	fn     func()
	stop   bool
}

// NewTicker starts a ticker whose first tick is one period from now.
func NewTicker(e *Engine, period Duration, fn func()) *Ticker {
	tk := &Ticker{period: period, fn: fn}
	tk.t.init(e, tk.tick)
	tk.t.Reset(period)
	return tk
}

func (tk *Ticker) tick() {
	tk.fn()
	if !tk.stop {
		tk.t.Reset(tk.period)
	}
}

// Stop halts the ticker.
func (tk *Ticker) Stop() {
	tk.stop = true
	tk.t.Stop()
}
