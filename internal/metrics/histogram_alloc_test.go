package metrics

import "testing"

func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := NewHistogram()
	// Push past the exact-retention threshold so Observe is in its
	// steady-state (bucketed-only) regime with the exact backing allocated.
	for i := int64(0); i < exactThreshold+10; i++ {
		h.Observe(i)
	}
	v := int64(123456)
	allocs := testing.AllocsPerRun(2000, func() {
		h.Observe(v)
		v += 7919
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestHistogramRecordQuantileZeroAllocs(t *testing.T) {
	// Bucketed regime: every op records (invalidating the CDF cache) and
	// queries, forcing a full cache rebuild per op — still zero allocations.
	h := NewHistogram()
	for i := int64(0); i < exactThreshold+10; i++ {
		h.Observe(i * 1000)
	}
	h.Quantile(0.5) // allocate the CDF cache once
	v := int64(1)
	allocs := testing.AllocsPerRun(500, func() {
		h.Observe(v)
		if h.Quantile(0.99) < 0 {
			t.Fatal("impossible")
		}
		v += 104729
	})
	if allocs != 0 {
		t.Fatalf("bucketed record+quantile allocates %.1f allocs/op, want 0", allocs)
	}

	// Exact regime: the sorted-sample cache is re-sorted per op, also
	// without allocating once its backing array has grown.
	e := NewHistogram()
	for i := int64(0); i < 1024; i++ {
		e.Observe(i * 37)
	}
	e.Quantile(0.5)
	allocs = testing.AllocsPerRun(500, func() {
		if e.Quantile(0.99) < 0 {
			t.Fatal("impossible")
		}
	})
	if allocs != 0 {
		t.Fatalf("exact quantile allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkHistogramRecordQuantile measures the paired record-then-query hot
// path in the bucketed regime (CDF rebuild amortized per batch would be
// cheaper; this is the worst case of one rebuild per record).
func BenchmarkHistogramRecordQuantile(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < exactThreshold+10; i++ {
		h.Observe(i * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	v := int64(1)
	for i := 0; i < b.N; i++ {
		h.Observe(v)
		_ = h.Quantile(0.99)
		v += 104729
	}
}

// BenchmarkHistogramQuantileCached measures quantile queries against an
// unchanged histogram — the common reporting pattern (record everything,
// then ask for many percentiles).
func BenchmarkHistogramQuantileCached(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < 100_000; i++ {
		h.Observe(i)
	}
	h.Quantile(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}
