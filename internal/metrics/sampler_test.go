package metrics

import (
	"testing"

	"tradenet/internal/sim"
)

// intVar registers name as an integer metric read from the returned
// variable, the shape every plant component uses.
func intVar(r *Registry, name string) *int64 {
	v := new(int64)
	r.RegisterInt(name, func() int64 { return *v })
	return v
}

// seriesByName returns s's series for one metric, or nil.
func seriesByName(s *Sampler, name string) *SampleSeries {
	for _, ser := range s.Series() {
		if ser.Name == name {
			return ser
		}
	}
	return nil
}

// TestGaugeAndEachWalker covers the structural registry surface the
// sampler and cmd/tradestat consume: kinds, and the sorted Each walk
// matching Dump's line order, over a level that rises and falls (a gauge),
// a count and a histogram.
func TestGaugeAndEachWalker(t *testing.T) {
	r := NewRegistry()
	g := intVar(r, "q.depth")
	c := intVar(r, "a.count")
	h := r.Histogram("m.lat")

	*g = 5
	*g -= 2
	*c += 7
	h.Observe(10)

	var names []string
	var kinds []Kind
	r.Each(func(name string, kind Kind) {
		names = append(names, name)
		kinds = append(kinds, kind)
	})
	wantNames := []string{"a.count", "m.lat", "q.depth"}
	wantKinds := []Kind{KindInt, KindHistogram, KindInt}
	if len(names) != len(wantNames) {
		t.Fatalf("Each walked %d metrics, want %d", len(names), len(wantNames))
	}
	for i := range wantNames {
		if names[i] != wantNames[i] || kinds[i] != wantKinds[i] {
			t.Errorf("Each[%d] = (%s, %s), want (%s, %s)", i, names[i], kinds[i], wantNames[i], wantKinds[i])
		}
	}

	if v, ok := r.Int("q.depth"); !ok || v != 3 {
		t.Errorf("Int(q.depth) = %d,%v; want 3,true", v, ok)
	}
	if hh, ok := r.Hist("m.lat"); !ok || hh != h {
		t.Errorf("Hist(m.lat) did not return the registered histogram")
	}
	if _, ok := r.Hist("a.count"); ok {
		t.Error("Hist(a.count) matched an int metric")
	}
}

// TestSamplerDeltasAndSnapshots drives a counter, a gauge, and a histogram
// through a scripted run and checks the per-tick points: values, deltas
// (negative for the gauge), and histogram quantile snapshots.
func TestSamplerDeltasAndSnapshots(t *testing.T) {
	sched := sim.NewScheduler(1)
	reg := NewRegistry()
	c := intVar(reg, "c")
	g := intVar(reg, "g")
	h := reg.Histogram("h")

	s := NewSampler(sched, reg, SamplerConfig{Interval: 10 * sim.Microsecond})
	*c += 100 // pre-arm counts baseline into the first delta's floor
	s.Arm(0, sim.Time(40*sim.Microsecond))

	at := func(us int, fn func()) { sched.At(sim.Time(sim.Duration(us)*sim.Microsecond), fn) }
	at(5, func() { *c += 3; *g = 10; h.Observe(50) })
	at(15, func() { *c += 4; *g = 2; h.Observe(100); h.Observe(200) })
	at(35, func() { *c += 1 })
	sched.Run()

	cs := seriesByName(s, "c")
	if cs.Len() != 4 {
		t.Fatalf("ticks = %d, want 4", cs.Len())
	}
	if cs == nil || cs.Kind != KindInt {
		t.Fatalf("missing counter series")
	}
	wantVals := []int64{103, 107, 107, 108}
	wantDeltas := []int64{3, 4, 0, 1}
	for i := 0; i < cs.Len(); i++ {
		p := cs.At(i)
		if p.Value != wantVals[i] || p.Delta != wantDeltas[i] {
			t.Errorf("c tick %d = (v=%d d=%d), want (v=%d d=%d)", i, p.Value, p.Delta, wantVals[i], wantDeltas[i])
		}
		if want := sim.Time(sim.Duration(10*(i+1)) * sim.Microsecond); p.T != want {
			t.Errorf("c tick %d at %v, want %v", i, p.T, want)
		}
	}

	gs := seriesByName(s, "g")
	if p := gs.At(1); p.Value != 2 || p.Delta != -8 {
		t.Errorf("gauge tick 1 = (v=%d d=%d), want (v=2 d=-8)", p.Value, p.Delta)
	}

	hs := seriesByName(s, "h")
	if hs.Kind != KindHistogram {
		t.Fatalf("h kind = %s", hs.Kind)
	}
	if p := hs.At(0); p.Value != 1 || p.Max != 50 {
		t.Errorf("hist tick 0 = (count=%d max=%d), want (1, 50)", p.Value, p.Max)
	}
	p := hs.At(1)
	if p.Value != 3 || p.Delta != 2 || p.Max != 200 || p.P50 != 100 {
		t.Errorf("hist tick 1 = (count=%d d=%d p50=%d max=%d), want (3,2,100,200)", p.Value, p.Delta, p.P50, p.Max)
	}
}

// TestSamplerRingEviction fills a tiny ring past capacity and checks the
// oldest points roll off, the eviction counter is exact, and the retained
// window is the most recent points in order.
func TestSamplerRingEviction(t *testing.T) {
	sched := sim.NewScheduler(1)
	reg := NewRegistry()
	c := intVar(reg, "c")
	s := NewSampler(sched, reg, SamplerConfig{Interval: sim.Microsecond, Capacity: 3})
	s.Arm(0, sim.Time(10*sim.Microsecond))
	for i := 1; i <= 10; i++ {
		i := i
		sched.AtPrio(sim.Time(sim.Duration(i)*sim.Microsecond), sim.PrioDeliver, func() { *c += int64(i) })
	}
	sched.Run()

	ser := seriesByName(s, "c")
	if ser.Len() != 3 {
		t.Fatalf("retained %d points, want 3", ser.Len())
	}
	if ser.Evicted() != 7 {
		t.Fatalf("evicted = %d, want 7", ser.Evicted())
	}
	// Ticks 8, 9, 10 remain: cumulative sums 36, 45, 55 with deltas 8, 9, 10.
	wantVals := []int64{36, 45, 55}
	for i := 0; i < 3; i++ {
		p := ser.At(i)
		if p.Value != wantVals[i] || p.Delta != int64(i+8) {
			t.Errorf("retained[%d] = (v=%d d=%d), want (v=%d d=%d)", i, p.Value, p.Delta, wantVals[i], i+8)
		}
	}
}

// TestSamplerBoundedByDeadline: the tick chain must stop at the Arm
// deadline so Scheduler.Run (queue-empty termination) still terminates,
// and an un-armed or nil sampler must schedule nothing.
func TestSamplerBoundedByDeadline(t *testing.T) {
	sched := sim.NewScheduler(1)
	reg := NewRegistry()
	intVar(reg, "c")
	s := NewSampler(sched, reg, SamplerConfig{Interval: sim.Microsecond})
	s.Arm(0, sim.Time(5*sim.Microsecond))
	end := sched.Run() // would hang here if ticks re-armed forever
	if want := sim.Time(5 * sim.Microsecond); end != want {
		t.Errorf("run ended at %v, want %v", end, want)
	}
	if n := seriesByName(s, "c").Len(); n != 5 {
		t.Errorf("ticks = %d, want 5", n)
	}

	var nilS *Sampler
	nilS.Arm(0, sim.Time(sim.Second)) // must not panic or schedule
	if nilS.Series() != nil {
		t.Error("nil sampler reported state")
	}
}

// TestSamplerSchedulerMetrics: RegisterScheduler's occupancy and queue-depth
// reads must reflect the live scheduler at each tick.
func TestSamplerSchedulerMetrics(t *testing.T) {
	sched := sim.NewScheduler(1)
	reg := NewRegistry()
	RegisterScheduler(reg, sched)
	s := NewSampler(sched, reg, SamplerConfig{Interval: 10 * sim.Microsecond})

	for i := 0; i < 50; i++ {
		sched.At(sim.Time(sim.Duration(25+i)*sim.Microsecond), func() {})
	}
	s.Arm(0, sim.Time(50*sim.Microsecond))
	sched.Run()

	fired := seriesByName(s, "sched.fired")
	if fired == nil {
		t.Fatal("sched.fired not sampled")
	}
	var prev int64
	fired.Each(func(p SamplePoint) {
		if p.Value < prev || p.Delta != p.Value-prev {
			t.Errorf("sched.fired not monotone/consistent at %v: v=%d d=%d prev=%d", p.T, p.Value, p.Delta, prev)
		}
		prev = p.Value
	})
	if prev == 0 || uint64(prev) > sched.Fired() {
		t.Errorf("last sched.fired sample %d out of range (final fired %d)", prev, sched.Fired())
	}
	pend := seriesByName(s, "sched.pending")
	if pend.At(0).Value == 0 {
		t.Error("sched.pending sampled 0 while 50 events were queued")
	}
	if seriesByName(s, "sched.occupancy.l0") == nil || seriesByName(s, "sched.placed.l1") == nil {
		t.Error("per-level scheduler series missing")
	}
}
