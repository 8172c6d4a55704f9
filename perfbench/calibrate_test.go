package main

import (
	"testing"
	"time"
)

// The reference kernel must not allocate: an allocation would add to
// the measured phase's allocation counts and move the collector's pacing.
func TestKernelDoesNotAllocate(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(100, c.kernel); n != 0 {
		t.Fatalf("kernel allocates %.1f times per run, want 0", n)
	}
}

func TestTickRunsKernelEveryInterval(t *testing.T) {
	c := newCalibrator()
	c.reset()
	c.tick()
	if c.runs != 0 || c.refS() != 0 {
		t.Fatalf("kernel ran %d times right after reset, want 0", c.runs)
	}
	for c.runs < 3 {
		time.Sleep(refEvery)
		c.tick()
	}
	if c.spent <= 0 || c.refS() != c.spent.Seconds()/3 {
		t.Fatalf("spent %v over %d runs, mean %v", c.spent, c.runs, c.refS())
	}
	c.reset()
	if c.runs != 0 || c.spent != 0 {
		t.Fatalf("reset left runs=%d spent=%v", c.runs, c.spent)
	}
}
