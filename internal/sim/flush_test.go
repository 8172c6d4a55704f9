package sim

import (
	"testing"
	"time"
)

// The sticky-interrupt contract: Interrupt marks the proc, and every
// Park/Sleep — current or future — returns false until ClearInterrupt,
// so a stop request propagates out of arbitrarily nested wait loops.

func TestInterruptStickyBeforePark(t *testing.T) {
	e := NewEngine(1)
	var slept bool
	sawFlag := false
	p := e.Spawn("s", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // let the interrupter run first
		sawFlag = p.Interrupted()
		slept = p.Sleep(time.Hour)
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(5 * time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if !sawFlag {
		t.Fatal("Interrupted() false after Interrupt on a running proc")
	}
	if slept {
		t.Fatal("Sleep succeeded with a pending interrupt")
	}
	if e.Now() >= Time(time.Hour) {
		t.Fatalf("pre-park check did not fire: clock ran to %v", e.Now())
	}
}

func TestInterruptPropagatesAcrossWaits(t *testing.T) {
	e := NewEngine(1)
	falses := 0
	p := e.Spawn("s", func(p *Proc) {
		// Every wait after the interrupt must refuse, not just the one
		// that was live when it landed.
		for i := 0; i < 3; i++ {
			if !p.Sleep(time.Minute) {
				falses++
			}
		}
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if falses != 3 {
		t.Fatalf("%d of 3 waits refused, want all (sticky flag lost)", falses)
	}
	if e.Now() > Time(2*time.Minute) {
		t.Fatalf("later waits parked anyway: clock at %v", e.Now())
	}
}

func TestClearInterruptRestoresWaiting(t *testing.T) {
	e := NewEngine(1)
	var afterClear bool
	p := e.Spawn("s", func(p *Proc) {
		if p.Sleep(time.Hour) {
			t.Error("interrupted Sleep reported success")
		}
		p.ClearInterrupt()
		if p.Interrupted() {
			t.Error("flag survived ClearInterrupt")
		}
		afterClear = p.Sleep(10 * time.Millisecond)
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if !afterClear {
		t.Fatal("Sleep after ClearInterrupt did not complete")
	}
}

// AtTimeEnd flushers run after the last runnable event of the current
// timestamp and before the clock advances — the egress batcher's hook.

func TestAtTimeEndRunsAfterInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	at := time.Millisecond
	e.Schedule(at, func() {
		order = append(order, "ev1")
		e.AtTimeEnd(func() { order = append(order, "flush@"+e.Now().String()) })
	})
	e.Schedule(at, func() { order = append(order, "ev2") })
	e.Schedule(2*at, func() { order = append(order, "later") })
	e.Run()
	want := []string{"ev1", "ev2", "flush@" + Time(at).String(), "later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAtTimeEndIgnoresCancelledHead(t *testing.T) {
	e := NewEngine(1)
	var flushedAt Time
	tm := NewTimer(e, func() {})
	e.Schedule(time.Millisecond, func() {
		e.AtTimeEnd(func() { flushedAt = e.Now() })
		// A cancelled same-instant event must not defer the flush to a
		// later timestamp.
		tm.Stop()
	})
	tm.Reset(time.Millisecond)
	e.Schedule(5*time.Millisecond, func() {})
	e.Run()
	if flushedAt != Time(time.Millisecond) {
		t.Fatalf("flushed at %v, want 1ms (cancelled head deferred it)", flushedAt)
	}
}

func TestAtTimeEndFlusherSchedulesSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(time.Millisecond, func() {
		e.AtTimeEnd(func() {
			order = append(order, "flush1")
			// A flush may emit follow-on work at the same timestamp (a
			// delivered batch triggering more sends); it runs after this
			// flush, and a flusher it registers runs in a second pass.
			e.Schedule(0, func() {
				order = append(order, "followup")
				e.AtTimeEnd(func() { order = append(order, "flush2") })
			})
		})
	})
	e.Run()
	want := []string{"flush1", "followup", "flush2"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Now() != Time(time.Millisecond) {
		t.Fatalf("clock advanced to %v during same-instant flushing", e.Now())
	}
}

func TestAtTimeEndRegistrationOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			i := i
			e.AtTimeEnd(func() { order = append(order, i) })
		}
	})
	e.Run()
	if len(order) != 4 {
		t.Fatalf("ran %d flushers, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("flushers out of registration order: %v", order)
		}
	}
}
