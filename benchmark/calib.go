package main

// The host-speed probe. On a shared host the same code runs a quarter faster
// or slower from one minute to the next; the probe is a fixed piece of work,
// none of it the program's, timed beside every round so that a round's
// timings can be read against how fast the host was while it ran.

import (
	"sync"
	"time"
)

const (
	probeWords = 4 << 20 // 32 MB: well beyond the per-core caches
	probeSteps = 200_000 // loads per goroutine
	// probeNominal is what probeSteps take on the machine the benchmark was
	// written on while its host is quiet. It only fixes the scale of the
	// corrected timings; on another machine they all shift by one factor.
	probeNominal = 40 * time.Millisecond
)

// hostProbe is a fixed walk of dependent random loads mixed with integer
// work, the two things every layer of the program spends its time on.
type hostProbe struct {
	cells []uint64
	steps int
}

// newHostProbe builds a probe of the given number of steps; a smoke run
// takes a short one.
func newHostProbe(steps int) *hostProbe {
	p := &hostProbe{cells: make([]uint64, probeWords), steps: steps}
	r := newRNG(1, "probe")
	for i := range p.cells {
		p.cells[i] = r.next()
	}
	return p
}

// run does the fixed work on as many goroutines as the loop has workers and
// returns how long the slowest took.
func (p *hostProbe) run() time.Duration {
	var wg sync.WaitGroup
	sink := make([]uint64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w + 1)
			for i := 0; i < p.steps; i++ {
				x = p.cells[x%probeWords] + uint64(i)
				for j := 0; j < 16; j++ { // xorshift: integer work between the loads
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			sink[w] = x
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	if sink[0] == 0 {
		return d + 1 // keeps the work observable; never taken in practice
	}
	return d
}

// slowdown is how many times slower than nominal the host ran the probe.
func (p *hostProbe) slowdown(took time.Duration) float64 {
	return float64(took) / (float64(probeNominal) * float64(p.steps) / probeSteps)
}
