package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tradenet/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Median() != 0 {
		t.Fatal("empty median should be 0")
	}
	if h.String() != "empty" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramExactSmall(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{5, 1, 9, 3, 7} {
		h.Observe(v)
	}
	if h.Min() != 1 || h.Max() != 9 || h.Count() != 5 {
		t.Fatalf("min/max/count = %d/%d/%d", h.Min(), h.Max(), h.Count())
	}
	if h.Mean() != 5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Median() != 5 {
		t.Fatalf("median = %d, want 5", h.Median())
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 9 {
		t.Fatal("extreme quantiles should hit min/max")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-100)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramBucketedQuantileAccuracy(t *testing.T) {
	// Beyond the exact threshold, quantiles come from log-linear buckets and
	// must stay within ~3.2% (one sub-bucket) of the true value.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var raw []int64
	for i := 0; i < 50_000; i++ {
		// Latency-shaped distribution: ~exp around 500ns in picoseconds.
		v := int64(rng.ExpFloat64() * 500_000)
		raw = append(raw, v)
		h.Observe(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := raw[int(q*float64(len(raw)))]
		got := h.Quantile(q)
		relErr := float64(got-want) / float64(want)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.04 {
			t.Errorf("q%.3f: got %d want %d (rel err %.3f)", q, got, want, relErr)
		}
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		for _, s := range samples {
			h.Observe(int64(s))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<22; v += 97 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucket index decreased at %d", v)
		}
		if lo := bucketLow(idx); lo > v {
			t.Fatalf("bucketLow(%d)=%d > sample %d", idx, lo, v)
		}
		prev = idx
	}
}

func TestWindowSeriesBasics(t *testing.T) {
	w := NewWindowSeries(0, sim.Second, 10)
	w.Record(0)
	w.Record(sim.Time(sim.Second) - 1) // still window 0
	w.Record(sim.Time(sim.Second))     // window 1
	w.RecordN(sim.Time(9*sim.Second), 5)
	w.Record(sim.Time(10 * sim.Second)) // out of range, dropped
	if w.Count(0) != 2 || w.Count(1) != 1 || w.Count(9) != 5 {
		t.Fatalf("counts = %v", w.Counts())
	}
	if w.Total() != 8 {
		t.Fatalf("total = %d", w.Total())
	}
	idx, c := w.Busiest()
	if idx != 9 || c != 5 {
		t.Fatalf("busiest = %d,%d", idx, c)
	}
	if w.WindowStart(3) != sim.Time(3*sim.Second) {
		t.Fatal("window start wrong")
	}
	if w.Len() != 10 || w.Width() != sim.Second {
		t.Fatal("len/width wrong")
	}
}

func TestWindowSeriesIndexOutOfRange(t *testing.T) {
	w := NewWindowSeries(sim.Time(sim.Second), sim.Second, 2)
	if w.Index(0) != -1 {
		t.Fatal("before start should be -1")
	}
	if w.Index(sim.Time(3*sim.Second)) != -1 {
		t.Fatal("past end should be -1")
	}
	if w.Index(sim.Time(sim.Second)) != 0 {
		t.Fatal("start should be window 0")
	}
}

func TestWindowSeriesMedianWithFilter(t *testing.T) {
	w := NewWindowSeries(0, sim.Second, 5)
	// windows: 0, 10, 20, 30, 0 — median over all = 10; over nonzero = 20.
	w.RecordN(sim.Time(1*sim.Second), 10)
	w.RecordN(sim.Time(2*sim.Second), 20)
	w.RecordN(sim.Time(3*sim.Second), 30)
	if m := w.Median(nil); m != 10 {
		t.Fatalf("median all = %d", m)
	}
	m := w.Median(func(i int) bool { return w.Count(i) > 0 })
	if m != 20 {
		t.Fatalf("median nonzero = %d", m)
	}
}

func TestWindowSeriesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero width should panic")
		}
	}()
	NewWindowSeries(0, 0, 1)
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"Feed", "min", "max"}, [][]string{
		{"Exchange A", "73", "1514"},
		{"B", "64", "1067"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Feed") || !strings.Contains(lines[2], "Exchange A") {
		t.Fatalf("table malformed:\n%s", out)
	}
	// Columns align: header and row start of "min" column match.
	if idxHeader, idxRow := strings.Index(lines[0], "min"), strings.Index(lines[2], "73"); idxHeader != idxRow {
		t.Fatalf("columns misaligned: %d vs %d\n%s", idxHeader, idxRow, out)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 1_000_000))
	}
}

func TestWindowSeriesWriteCSV(t *testing.T) {
	w := NewWindowSeries(0, sim.Second, 3)
	w.RecordN(0, 5)
	w.RecordN(sim.Time(2*sim.Second), 7)
	var buf strings.Builder
	if err := w.WriteCSV(&buf, sim.Second, "t_s", "events"); err != nil {
		t.Fatal(err)
	}
	want := "t_s,events\n0,5\n1,0\n2,7\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
	// Zero unit defaults to the window width.
	var buf2 strings.Builder
	if err := w.WriteCSV(&buf2, 0, "w", "n"); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != "w,n\n0,5\n1,0\n2,7\n" {
		t.Fatalf("csv2 = %q", buf2.String())
	}
}
