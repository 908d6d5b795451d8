package metrics

import (
	"fmt"
	"io"
	"sort"

	"tradenet/internal/sim"
)

// WindowSeries counts events into fixed-width windows of simulated time:
// the aggregation behind Figure 2(b) (1-second windows across a trading
// day) and Figure 2(c) (100-microsecond windows across the busiest second).
type WindowSeries struct {
	start   sim.Time
	width   sim.Duration
	counts  []int64
	dropped int64
}

// NewWindowSeries creates a series of n windows of the given width starting
// at start. Events outside [start, start+n*width) are dropped (and counted
// by Dropped).
func NewWindowSeries(start sim.Time, width sim.Duration, n int) *WindowSeries {
	if width <= 0 || n <= 0 {
		panic("metrics: window series needs positive width and count")
	}
	return &WindowSeries{start: start, width: width, counts: make([]int64, n)}
}

// Record counts one event at instant t.
func (w *WindowSeries) Record(t sim.Time) { w.RecordN(t, 1) }

// RecordN counts n events at instant t.
func (w *WindowSeries) RecordN(t sim.Time, n int64) {
	idx := w.Index(t)
	if idx < 0 {
		w.dropped += n
		return
	}
	w.counts[idx] += n
}

// Dropped returns the number of events recorded outside the series range
// (before start or at/after the final window's end).
func (w *WindowSeries) Dropped() int64 { return w.dropped }

// Index returns the window index containing t, or -1 if out of range.
func (w *WindowSeries) Index(t sim.Time) int {
	if t < w.start {
		return -1
	}
	idx := int(t.Sub(w.start) / w.width)
	if idx >= len(w.counts) {
		return -1
	}
	return idx
}

// WindowStart returns the start instant of window i.
func (w *WindowSeries) WindowStart(i int) sim.Time {
	return w.start.Add(sim.Duration(i) * w.width)
}

// Len returns the number of windows.
func (w *WindowSeries) Len() int { return len(w.counts) }

// Width returns the window width.
func (w *WindowSeries) Width() sim.Duration { return w.width }

// Count returns the event count in window i.
func (w *WindowSeries) Count(i int) int64 { return w.counts[i] }

// Counts returns the underlying window counts. The caller must not modify it.
func (w *WindowSeries) Counts() []int64 { return w.counts }

// Total returns the sum across all windows.
func (w *WindowSeries) Total() int64 {
	var t int64
	for _, c := range w.counts {
		t += c
	}
	return t
}

// Busiest returns the index and count of the fullest window.
func (w *WindowSeries) Busiest() (idx int, count int64) {
	for i, c := range w.counts {
		if c > count {
			idx, count = i, c
		}
	}
	return idx, count
}

// Median returns the median per-window count, considering only windows that
// satisfy the filter (pass nil to include all windows). Figure 2(b)'s
// "median second has over 300k events" considers only the trading session,
// not the empty overnight windows.
func (w *WindowSeries) Median(include func(i int) bool) int64 {
	var vals []int64
	for i, c := range w.counts {
		if include == nil || include(i) {
			vals = append(vals, c)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}

// WriteCSV emits the series as two columns — window start (in units of
// unit, e.g. seconds) and count — so the paper's figures can be re-plotted
// from the generated data.
func (w *WindowSeries) WriteCSV(out io.Writer, unit sim.Duration, xLabel, yLabel string) error {
	if unit <= 0 {
		unit = w.width
	}
	if _, err := fmt.Fprintf(out, "%s,%s\n", xLabel, yLabel); err != nil {
		return err
	}
	for i, c := range w.counts {
		x := float64(w.WindowStart(i)) / float64(unit)
		if _, err := fmt.Fprintf(out, "%g,%d\n", x, c); err != nil {
			return err
		}
	}
	return nil
}
