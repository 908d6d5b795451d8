// Package capture models precise network timestamping (§2): per-device
// clocks with offset and frequency drift, PTP-style synchronization, tap
// capture records, and the latency analysis trading firms run on them —
// a strategy's latency is the time its order left minus the time its most
// recent market-data input arrived.
package capture

import (
	"math/rand"
	"sort"

	"tradenet/internal/sim"
)

// Clock is a device-local oscillator: it reads true simulation time plus a
// fixed offset plus accumulated frequency drift since the last sync.
type Clock struct {
	offset   sim.Duration
	driftPPB float64 // parts per billion frequency error
	lastSync sim.Time
}

// NewClock returns a clock with the given initial offset and drift rate.
func NewClock(offset sim.Duration, driftPPB float64) *Clock {
	return &Clock{offset: offset, driftPPB: driftPPB}
}

// Read returns the clock's value at true time now.
func (c *Clock) Read(now sim.Time) sim.Time {
	elapsed := float64(now.Sub(c.lastSync))
	drift := sim.Duration(elapsed * c.driftPPB / 1e9)
	return now.Add(c.offset + drift)
}

// Error returns the clock's deviation from true time at now.
func (c *Clock) Error(now sim.Time) sim.Duration { return c.Read(now).Sub(now) }

// Sync disciplines the clock at true time now: the residual offset after a
// sync round is drawn uniformly within ±precision (the sync protocol's
// accuracy), and drift accumulation restarts. Firms pushing for <100 ps
// precision (§2) are pushing precision toward zero here.
func (c *Clock) Sync(now sim.Time, precision sim.Duration, rng *rand.Rand) {
	residual := sim.Duration(0)
	if precision > 0 {
		residual = sim.Duration(rng.Int63n(int64(2*precision)+1)) - precision
	}
	c.offset = residual
	c.lastSync = now
}

// Record is one captured frame observation.
type Record struct {
	// Stamped is the capture device's clock reading.
	Stamped sim.Time
	// True is the exact simulation time (unknowable in production; kept for
	// evaluating timestamp error).
	True sim.Time
	// FrameLen is the captured frame's length.
	FrameLen int
	// Point identifies the tap location.
	Point string
}

// Recorder accumulates capture records from one or more taps, each
// timestamped by a local clock.
type Recorder struct {
	Clock *Clock
	Point string
	recs  []Record
}

// NewRecorder returns a recorder stamping with clock at the named point.
func NewRecorder(clock *Clock, point string) *Recorder {
	return &Recorder{Clock: clock, Point: point}
}

// Capture records a frame of length n observed at true time now.
func (r *Recorder) Capture(now sim.Time, n int) {
	r.recs = append(r.recs, Record{
		Stamped:  r.Clock.Read(now),
		True:     now,
		FrameLen: n,
		Point:    r.Point,
	})
}

// Records returns the captured records in capture order.
func (r *Recorder) Records() []Record { return r.recs }

// MaxTimestampError returns the largest |stamped − true| across records.
func (r *Recorder) MaxTimestampError() sim.Duration {
	var max sim.Duration
	for _, rec := range r.recs {
		e := rec.Stamped.Sub(rec.True)
		if e < 0 {
			e = -e
		}
		if e > max {
			max = e
		}
	}
	return max
}

// OrderingErrors counts adjacent record pairs whose stamped order disagrees
// with their true order — the failure mode that makes imprecise timestamps
// useless for the §2 research use case ("understanding the ordering of
// market data events"). Records are compared in true-time order.
func OrderingErrors(recs []Record) int {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].True < sorted[j].True })
	n := 0
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Stamped < sorted[i-1].Stamped {
			n++
		}
	}
	return n
}
