package metrics

import (
	"math/rand"
	"testing"

	"tradenet/internal/sim"
)

// Property tests for WindowSeries geometry. The series backs the Figure 2
// aggregations and the telemetry plane's CSV exports, so its boundary
// arithmetic must be exact: an off-by-one at a window edge silently moves
// events between the paper's buckets.

// TestWindowBoundariesExact pins the half-open [start, end) contract at
// every edge: an event at WindowStart(i) lands in i, an event one tick
// before lands in i-1, and an event at the end of the last window is
// dropped.
func TestWindowBoundariesExact(t *testing.T) {
	start := sim.Time(3 * sim.Microsecond)
	w := NewWindowSeries(start, 100*sim.Nanosecond, 7)

	if s0, e0 := w.WindowStart(0), w.WindowStart(1); s0 != start || e0 != start.Add(100*sim.Nanosecond) {
		t.Fatalf("window 0 = [%v,%v)", s0, e0)
	}
	hi := w.WindowStart(w.Len())

	for i := 0; i < w.Len(); i++ {
		if got := w.Index(w.WindowStart(i)); got != i {
			t.Errorf("Index(WindowStart(%d)) = %d", i, got)
		}
		if got := w.Index(w.WindowStart(i+1) - 1); got != i {
			t.Errorf("Index(WindowStart(%d)-1) = %d", i+1, got)
		}
	}
	if got := w.Index(hi); got != -1 {
		t.Errorf("Index(end) = %d, want -1 (dropped)", got)
	}
	if got := w.Index(start - 1); got != -1 {
		t.Errorf("Index(start-1) = %d, want -1", got)
	}
}

// TestWindowSeriesProperty fuzzes random event streams and checks the
// invariants that make the iterator trustworthy: every recorded event is
// either in exactly the window whose [start, end) contains it or counted
// as dropped (rollover past capacity), totals reconcile exactly, and the
// counts follow the geometry Index computes.
func TestWindowSeriesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		start := sim.Time(rng.Int63n(1000))
		width := sim.Duration(1 + rng.Int63n(500))
		n := 1 + rng.Intn(20)
		w := NewWindowSeries(start, width, n)
		end := w.WindowStart(n)

		ref := make([]int64, n)
		var refDropped, recorded int64
		for e := 0; e < 300; e++ {
			// Bias events around the valid range so both in-range and
			// rollover-past-capacity paths are exercised.
			t0 := start.Add(sim.Duration(rng.Int63n(int64(end.Sub(start))*3/2)) - width)
			cnt := int64(1 + rng.Int63n(3))
			w.RecordN(t0, cnt)
			recorded += cnt
			if t0 < start || t0 >= end {
				refDropped += cnt
			} else {
				ref[int(t0.Sub(start)/width)] += cnt
			}
		}

		if w.Dropped() != refDropped {
			t.Fatalf("trial %d: dropped %d, want %d", trial, w.Dropped(), refDropped)
		}
		if w.Total()+w.Dropped() != recorded {
			t.Fatalf("trial %d: total %d + dropped %d != recorded %d", trial, w.Total(), w.Dropped(), recorded)
		}
		for i, count := range w.Counts() {
			if count != ref[i] {
				t.Fatalf("trial %d window %d: count %d, want %d", trial, i, count, ref[i])
			}
			if s, e := w.WindowStart(i), w.WindowStart(i+1); e.Sub(s) != width {
				t.Fatalf("trial %d window %d: bad bounds [%v,%v)", trial, i, s, e)
			}
		}
		if len(w.Counts()) != n {
			t.Fatalf("trial %d: %d windows, want %d", trial, len(w.Counts()), n)
		}
	}
}
