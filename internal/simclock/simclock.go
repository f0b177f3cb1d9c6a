// Package simclock defines simulated time, counted in whole seconds.
//
// All PREPARE simulations advance in integer-second ticks. Simulated
// time never reads the wall clock, so every run is exactly reproducible
// given the same seed and configuration.
package simclock

import (
	"fmt"
	"time"
)

// Time is a simulated instant, measured in whole seconds from the start of
// the simulation. It intentionally mirrors a subset of time.Time's
// comparison API so call sites read naturally.
type Time int64

// Seconds returns the instant as a number of seconds since simulation start.
func (t Time) Seconds() int64 { return int64(t) }

// Duration returns the simulated duration elapsed since the zero instant.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Second }

// Add returns the instant d seconds later.
func (t Time) Add(d int64) Time { return t + Time(d) }

// Sub returns the number of seconds between t and u (t - u).
func (t Time) Sub(u Time) int64 { return int64(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as "123s".
func (t Time) String() string { return fmt.Sprintf("%ds", int64(t)) }
