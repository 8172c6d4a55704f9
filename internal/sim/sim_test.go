package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := NewTimer(e, func() { fired = true })
	tm.Reset(time.Millisecond)
	tm.Stop()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel must not panic.
	tm.Stop()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(30*time.Millisecond, func() { fired = append(fired, 2) })
	e.RunUntil(Time(20 * time.Millisecond))
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want just first event", fired)
	}
	if e.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want exactly 20ms", e.Now())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Microsecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != Time(50*time.Millisecond) {
		t.Fatalf("woke at %v, want 50ms", wake)
	}
}

func TestProcParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var a *Proc
	order := []string{}
	a = e.Spawn("a", func(p *Proc) {
		order = append(order, "a-park")
		p.Park()
		order = append(order, "a-resume")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "b-unpark")
		a.Unpark()
	})
	e.Run()
	want := []string{"a-park", "b-unpark", "a-resume"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestProcInterrupt(t *testing.T) {
	e := NewEngine(1)
	var completed, sleptFull bool
	p := e.Spawn("s", func(p *Proc) {
		sleptFull = p.Sleep(time.Hour)
		completed = true
	})
	e.Spawn("i", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Interrupt()
	})
	e.Run()
	if !completed {
		t.Fatal("interrupted proc did not continue")
	}
	if sleptFull {
		t.Fatal("Sleep reported full sleep despite interrupt")
	}
	if e.Now() >= Time(time.Hour) {
		t.Fatalf("clock ran to %v; interrupt did not cancel wake event", e.Now())
	}
}

func TestEngineStopUnwindsProcs(t *testing.T) {
	e := NewEngine(1)
	deferred := false
	e.Spawn("p", func(p *Proc) {
		defer func() { deferred = true }()
		p.Park() // nobody will unpark
	})
	e.Schedule(time.Millisecond, func() { e.Stop() })
	e.Run()
	if !deferred {
		t.Fatal("deferred cleanup did not run on Stop")
	}
}

func TestWaitQueueSignal(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	got := []int{}
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			q.Wait(p)
			got = append(got, i)
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Signal()
		p.Sleep(time.Millisecond)
		q.Broadcast()
	})
	e.Run()
	if len(got) != 3 {
		t.Fatalf("only %d waiters woke: %v", len(got), got)
	}
	if got[0] != 0 {
		t.Fatalf("Signal woke %d, want FIFO order (0 first)", got[0])
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(2)
	active, maxActive := 0, 0
	for i := 0; i < 5; i++ {
		e.Spawn("worker", func(p *Proc) {
			s.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(10 * time.Millisecond)
			active--
			s.Release()
		})
	}
	e.Run()
	if maxActive != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxActive)
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tm := NewTimer(e, func() { count++ })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(20 * time.Millisecond) // supersedes
	e.RunUntil(Time(15 * time.Millisecond))
	if count != 0 {
		t.Fatal("timer fired from superseded schedule")
	}
	e.Run()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	tm.Reset(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop did not report pending timer")
	}
	e.Run()
	if count != 1 {
		t.Fatalf("stopped timer fired")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, time.Second, func() { n++ })
	e.RunUntil(Time(5500 * time.Millisecond))
	tk.Stop()
	e.Run()
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var log []Time
		for i := 0; i < 20; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					log = append(log, p.Now())
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysMS []uint8) bool {
		e := NewEngine(7)
		var last Time = -1
		ok := true
		var max Duration
		for _, ms := range delaysMS {
			d := time.Duration(ms) * time.Millisecond
			if d > max {
				max = d
			}
			e.Schedule(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		if len(delaysMS) > 0 && e.Now() != Time(max) {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, fn)
		}
	}
	e.Schedule(0, fn)
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkTimerReset re-arms an armed timer, alternating earlier and
// later deadlines, in a queue of 200 other events: the retransmission
// timer's pattern on every ACK.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 200; i++ {
		e.Schedule(Duration(i)*time.Millisecond, func() {})
	}
	tm := NewTimer(e, func() {})
	tm.Reset(100 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Duration(50+100*(i&1)) * time.Millisecond)
	}
}
