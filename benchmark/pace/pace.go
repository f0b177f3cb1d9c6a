// Package pace is the benchmark's open-loop schedule. Operation k is
// due at start + k*every however late earlier operations ran — falling
// behind is never compensated by shifting the schedule — and latencies
// are timed from the due time, so a stall in the system under test
// counts against every operation it delays. How late the generator
// itself ran is recorded, to tell a slow system from a slow generator.
package pace

import (
	"runtime"
	"time"
)

// Pacer paces one generator goroutine.
type Pacer struct {
	// Now and Sleep are the clock; tests substitute a fake one.
	Now   func() time.Time
	Sleep func(time.Duration)
	// Start is when operation 0 is due and Every the period.
	Start time.Time
	Every time.Duration
	// LateMs holds, per operation, how long after its due time it
	// started, in milliseconds.
	LateMs []float64
}

// New returns a pacer on the wall clock whose schedule starts now.
func New(every time.Duration) *Pacer {
	return &Pacer{Now: time.Now, Sleep: YieldFor, Start: time.Now(), Every: every}
}

// YieldFor waits for d by yielding the processor in a loop instead of
// sleeping. Other goroutines run whenever they can, as they would during
// a sleep, but the processor never goes idle: on a virtual machine an
// idle vCPU comes back slow (the host has parked it or clocked it down),
// and a load that is mostly waiting would time that, not the program.
func YieldFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		runtime.Gosched()
	}
}

// Due returns when operation k is due.
func (p *Pacer) Due(k int) time.Time { return p.Start.Add(time.Duration(k) * p.Every) }

// Wait sleeps off any lead over operation k's due time, records how
// late the operation starts, and returns the due time.
func (p *Pacer) Wait(k int) time.Time {
	due := p.Due(k)
	if lead := due.Sub(p.Now()); lead > 0 {
		p.Sleep(lead)
	}
	late := p.Now().Sub(due)
	if late < 0 {
		late = 0
	}
	p.LateMs = append(p.LateMs, float64(late.Nanoseconds())/1e6)
	return due
}
