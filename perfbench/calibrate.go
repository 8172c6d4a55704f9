package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// Host-speed calibration. The CPU a run gets from a shared virtual
// machine changes speed by tens of percent for tens of seconds at a
// time, so the raw host time of one run says as much about the machine
// at that moment as about the code. The calibrator runs a fixed
// reference kernel between engine slices, every refEvery of host time,
// and the measured phase's host time is divided by the kernel's mean
// duration over the same phase: the result, in "refs", is how many runs
// of the kernel one op costs on the same CPU at the same moment. The
// kernel's time is taken out of the measured phase's wall and CPU time.
//
// The kernel does what the simulator's hot paths do (string-keyed map
// updates and a sort of strings) on a fixed input, without allocating,
// so it leaves the heap and the collector's pacing alone and no change
// to the repository's code can change its cost.

// refEvery is the host time between two runs of the reference kernel.
const refEvery = 10 * time.Millisecond

// refKeys is the reference kernel's input size.
const refKeys = 1024

type calibrator struct {
	input []string
	keys  []string
	m     map[string]int
	sink  int

	last  time.Time
	spent time.Duration // total kernel time since reset
	runs  int
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{m: make(map[string]int, refKeys), keys: make([]string, 0, refKeys)}
	for i := 0; i < refKeys; i++ {
		c.input = append(c.input, strconv.FormatUint(r.Uint64(), 36))
	}
	c.kernel() // size the map and the key slice once
	return c
}

// kernel runs the reference work once.
func (c *calibrator) kernel() {
	clear(c.m)
	c.keys = c.keys[:0]
	for i, s := range c.input {
		k := s[len(s)-5:]
		if _, ok := c.m[k]; !ok {
			c.keys = append(c.keys, k)
		}
		c.m[k] += i
	}
	sort.Strings(c.keys)
	c.sink += c.m[c.keys[0]]
}

// reset starts a new measured phase.
func (c *calibrator) reset() {
	c.last = time.Now()
	c.spent = 0
	c.runs = 0
}

// tick runs the kernel if refEvery has passed since its last run.
func (c *calibrator) tick() {
	if time.Since(c.last) < refEvery {
		return
	}
	t0 := time.Now()
	c.kernel()
	c.last = time.Now()
	c.spent += c.last.Sub(t0)
	c.runs++
}

// refS is the kernel's mean duration since reset, in seconds (0 if it
// never ran).
func (c *calibrator) refS() float64 {
	if c.runs == 0 {
		return 0
	}
	return c.spent.Seconds() / float64(c.runs)
}
