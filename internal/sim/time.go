// Package sim provides the discrete-event simulation core used by every
// DIABLO model: simulated time, a deterministic event queue, the run loop,
// and reproducible random-number streams.
//
// DIABLO's FPGA hosts executed abstract performance models under per-FPGA
// simulation schedulers that synchronized at fine granularity. This package
// is the software equivalent: the Engine is the scheduler, and the optional
// partitioned engine (see parallel.go) mirrors the multi-FPGA structure with
// conservative quantum-barrier synchronization.
//
// Time is kept in integer picoseconds. Picoseconds make both link
// serialization (1 Gbps = 1000 ps/bit) and CPU cycles (4 GHz = 250 ps/cycle)
// exact, so simulations are deterministic and free of float drift.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulated time in picoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations, in picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time greater than any reachable simulation time.
const Never = Time(1<<63 - 1)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanoseconds returns the time as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// Nanoseconds returns the duration as a float64 count of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a float64 count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration as a float64 count of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts d to a time.Duration, rounding down to nanoseconds.
func (d Duration) Std() time.Duration { return time.Duration(d / Nanosecond) }

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration { return Duration(d) * Nanosecond }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs == 0:
		return "0s"
	case abs < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case abs < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanoseconds())
	case abs < Millisecond:
		return fmt.Sprintf("%.4gus", d.Microseconds())
	case abs < Second:
		return fmt.Sprintf("%.4gms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// BitTime returns the serialization time of one bit on a link of the given
// rate in bits per second. It is exact for the common datacenter rates
// (1 Gbps = 1000 ps, 10 Gbps = 100 ps, 40 Gbps = 25 ps).
func BitTime(bitsPerSecond int64) Duration {
	if bitsPerSecond <= 0 {
		panic("sim: non-positive link rate")
	}
	return Duration(int64(Second) / bitsPerSecond)
}

// TransmitTime returns the serialization delay of n bytes at the given rate.
func TransmitTime(bytes int, bitsPerSecond int64) Duration {
	return Duration(int64(bytes) * 8 * int64(BitTime(bitsPerSecond)))
}
