// Package sim provides a deterministic discrete-event simulation kernel with
// picosecond time resolution.
//
// Trading networks operate at timescales where a single commodity-switch hop
// (~500 ns) is two orders of magnitude slower than a Layer-1 switch hop
// (~5 ns), and where some firms want timestamps with sub-100-picosecond
// precision. Virtual time is therefore kept in integer picoseconds: fine
// enough to express every latency the paper discusses exactly, wide enough
// (int64) to cover ~106 days of simulated time.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation timestamp in picoseconds since the start of
// the run. The zero value is the beginning of simulated time.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations, expressed in picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Nanoseconds returns t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with an automatically chosen unit.
func (t Time) String() string { return Duration(t).String() }

// Nanoseconds returns d as a float64 count of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns d as a float64 count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns d as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts d to a time.Duration (nanosecond resolution), rounding toward
// zero.
func (d Duration) Std() time.Duration { return time.Duration(d / Nanosecond) }

// String formats d with an automatically chosen unit: ps below 1 ns, then
// ns / µs / ms / s.
func (d Duration) String() string {
	neg := d < 0
	if neg {
		d = -d
	}
	var s string
	switch {
	case d < Nanosecond:
		s = fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		s = trimUnit(float64(d)/float64(Nanosecond), "ns")
	case d < Millisecond:
		s = trimUnit(float64(d)/float64(Microsecond), "µs")
	case d < Second:
		s = trimUnit(float64(d)/float64(Millisecond), "ms")
	default:
		s = trimUnit(float64(d)/float64(Second), "s")
	}
	if neg {
		return "-" + s
	}
	return s
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a trailing decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// FromStd converts a time.Duration to a simulation Duration.
func FromStd(d time.Duration) Duration { return Duration(d) * Nanosecond }

// Nanoseconds constructs a Duration from a count of nanoseconds.
func Nanoseconds(n int64) Duration { return Duration(n) * Nanosecond }

// Microseconds constructs a Duration from a count of microseconds.
func Microseconds(n int64) Duration { return Duration(n) * Microsecond }

// Milliseconds constructs a Duration from a count of milliseconds.
func Milliseconds(n int64) Duration { return Duration(n) * Millisecond }

// Seconds constructs a Duration from a count of seconds.
func Seconds(n int64) Duration { return Duration(n) * Second }
