package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// --- Fired / Cancel semantics -----------------------------------------------

func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(Nanosecond, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if !e.Fired() {
		t.Fatal("Fired() = false after the callback ran")
	}
	e.Cancel()
	if e.Canceled() {
		t.Fatal("Canceled() = true for an event whose callback ran: Cancel after fire must not rewrite history")
	}
	if e.Fired() != true {
		t.Fatal("Fired() flipped by post-fire Cancel")
	}
}

func TestCanceledAndFiredAreMutuallyExclusive(t *testing.T) {
	s := NewScheduler(1)
	e := s.After(Nanosecond, func() {})
	e.Cancel()
	s.Run()
	if e.Fired() {
		t.Fatal("canceled event reports Fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after pre-fire Cancel")
	}
}

func TestEveryCancelBetweenTicks(t *testing.T) {
	s := NewScheduler(1)
	ticks := 0
	cancel := s.Every(0, Second, func() { ticks++ })
	s.RunUntil(Time(2500 * Millisecond)) // ticks at 0s, 1s, 2s
	if ticks != 3 {
		t.Fatalf("ticks = %d before cancel, want 3", ticks)
	}
	// Cancel between ticks: the 3s tick is pending and must be withdrawn.
	cancel()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after between-ticks cancel, want 0", s.Pending())
	}
	s.RunUntil(Time(10 * Second))
	if ticks != 3 {
		t.Fatalf("ticks = %d after cancel, want 3", ticks)
	}
	cancel() // double-cancel is a no-op
}

func TestEveryCancelBetweenTicksAfterPoolReuse(t *testing.T) {
	// The pending-tick Event may be recycled for unrelated work once the
	// ticker is done; a late cancel() must not shoot down the new tenant.
	s := NewScheduler(1)
	ticks := 0
	cancel := s.Every(0, Second, func() { ticks++ })
	s.RunUntil(Time(1500 * Millisecond)) // ticks at 0s, 1s; next pending at 2s
	cancel()
	// Recycle heavily: the ticker's event storage is back in the pool and
	// will be handed to these schedules.
	other := 0
	for i := 0; i < 32; i++ {
		s.After(Duration(i+1)*Nanosecond, func() { other++ })
	}
	cancel() // stale: must not cancel any of the new events
	s.Run()
	if other != 32 {
		t.Fatalf("stale ticker cancel killed %d unrelated events", 32-other)
	}
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
}

func TestStaleHandleCancelIsNoOp(t *testing.T) {
	s := NewScheduler(1)
	e := s.After(Nanosecond, func() {})
	h := e.Handle()
	s.Run() // fires; storage returns to the pool
	fired := false
	e2 := s.After(Nanosecond, func() { fired = true })
	if e2 != e {
		t.Fatalf("expected LIFO pool reuse for this test; got distinct events")
	}
	if h.Pending() {
		t.Fatal("stale handle reports Pending")
	}
	h.Cancel() // seq mismatch: no-op
	s.Run()
	if !fired {
		t.Fatal("stale Handle.Cancel canceled an unrelated recycled event")
	}
}

// --- Far-future overflow -----------------------------------------------------

func TestOverflowFarFutureEvents(t *testing.T) {
	// The wheel horizon is 2^48 ps ≈ 281 s; these cross it.
	s := NewScheduler(1)
	var order []int
	s.At(Time(400*Second), func() { order = append(order, 2) })
	s.At(Time(Second), func() { order = append(order, 1) })
	s.At(Time(1000*Second), func() { order = append(order, 3) })
	victim := s.At(Time(800*Second), func() { order = append(order, 99) })
	victim.Cancel() // overflow removal path
	end := s.Run()
	if end != Time(1000*Second) {
		t.Fatalf("end = %v, want 1000s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestOverflowSameInstantOrdering(t *testing.T) {
	s := NewScheduler(1)
	at := Time(500 * Second) // past the horizon
	var order []string
	s.AtPrio(at, PrioDrain, func() { order = append(order, "drain") })
	s.AtPrio(at, PrioControl, func() { order = append(order, "control") })
	s.AtPrio(at, PrioDeliver, func() { order = append(order, "a") })
	s.AtPrio(at, PrioDeliver, func() { order = append(order, "b") })
	s.Run()
	want := []string{"control", "a", "b", "drain"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilAcrossHorizon(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	s.At(Time(400*Second), func() { fired = append(fired, s.Now()) })
	s.At(Time(1000*Second), func() { fired = append(fired, s.Now()) })
	if end := s.RunUntil(Time(600 * Second)); end != Time(600*Second) {
		t.Fatalf("RunUntil = %v", end)
	}
	if len(fired) != 1 || fired[0] != Time(400*Second) {
		t.Fatalf("fired = %v", fired)
	}
	// Scheduling relative to the jumped clock must still work.
	s.After(Second, func() { fired = append(fired, s.Now()) })
	s.Run()
	if len(fired) != 3 || fired[1] != Time(601*Second) || fired[2] != Time(1000*Second) {
		t.Fatalf("fired = %v", fired)
	}
}

// --- Wheel vs reference heap property ---------------------------------------

// refSched is a minimal container/heap scheduler implementing the exact
// (time, prio, seq) contract — the seed implementation distilled.
type refEvent struct {
	at   Time
	prio int
	seq  uint64
	fn   func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type refSched struct {
	h   refHeap
	now Time
	seq uint64
}

func (r *refSched) at(t Time, prio int, fn func()) {
	heap.Push(&r.h, &refEvent{at: t, prio: prio, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refSched) run() {
	for r.h.Len() > 0 {
		e := heap.Pop(&r.h).(*refEvent)
		r.now = e.at
		e.fn()
	}
}

type firing struct {
	at   Time
	prio int
	idx  int
}

// TestWheelMatchesReferenceHeap checks that the timing wheel and a reference
// binary heap produce identical event orderings for 10k random (time, prio)
// schedules, across 10 seeds. Times are drawn to stress every placement
// class: same-instant collisions, every wheel level, and overflow.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	const n = 10_000
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type ev struct {
			at   Time
			prio int
		}
		evs := make([]ev, n)
		for i := range evs {
			var at int64
			switch rng.Intn(8) {
			case 0: // level-0 collisions at tiny instants
				at = rng.Int63n(256)
			case 1: // straddle the 2^48 ps horizon
				at = int64(250*Second) + rng.Int63n(int64(100*Second))
			case 2: // deep overflow
				at = rng.Int63n(int64(4000 * Second))
			default: // typical microsecond-scale simulation times
				at = rng.Int63n(int64(5 * Millisecond))
			}
			evs[i] = ev{Time(at), rng.Intn(7) - 3}
		}

		wheelOrder := make([]firing, 0, n)
		s := NewScheduler(seed)
		for i, e := range evs {
			i := i
			s.AtPrio(e.at, e.prio, func() {
				wheelOrder = append(wheelOrder, firing{s.Now(), evs[i].prio, i})
			})
		}
		s.Run()

		heapOrder := make([]firing, 0, n)
		r := &refSched{}
		for i, e := range evs {
			i := i
			r.at(e.at, e.prio, func() {
				heapOrder = append(heapOrder, firing{r.now, evs[i].prio, i})
			})
		}
		r.run()

		if len(wheelOrder) != n || len(heapOrder) != n {
			t.Fatalf("seed %d: fired %d/%d events (want %d)", seed, len(wheelOrder), len(heapOrder), n)
		}
		for i := range wheelOrder {
			if wheelOrder[i] != heapOrder[i] {
				t.Fatalf("seed %d: orderings diverge at firing %d: wheel %+v, heap %+v",
					seed, i, wheelOrder[i], heapOrder[i])
			}
		}
	}
}

// TestWheelMatchesReferenceHeapDynamic repeats the comparison with events
// scheduled from inside callbacks, so placement happens relative to a moving
// reference time — the regime real simulations live in.
func TestWheelMatchesReferenceHeapDynamic(t *testing.T) {
	const n = 5_000
	for seed := int64(0); seed < 10; seed++ {
		// Shared jitter tape so both implementations see identical inputs.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		jitter := make([]Duration, n)
		prios := make([]int, n)
		for i := range jitter {
			jitter[i] = Duration(rng.Int63n(int64(10 * Microsecond)))
			prios[i] = rng.Intn(5) - 2
		}

		runWheel := func() []firing {
			order := make([]firing, 0, n)
			s := NewScheduler(seed)
			var spawn func()
			spawn = func() {
				i := len(order)
				order = append(order, firing{s.Now(), 0, i})
				if i+1 < n {
					s.AtPrio(s.Now().Add(jitter[i]), prios[i], spawn)
				}
			}
			s.At(0, spawn)
			s.Run()
			return order
		}
		runHeap := func() []firing {
			order := make([]firing, 0, n)
			r := &refSched{}
			var spawn func()
			spawn = func() {
				i := len(order)
				order = append(order, firing{r.now, 0, i})
				if i+1 < n {
					r.at(r.now.Add(jitter[i]), prios[i], spawn)
				}
			}
			r.at(0, 0, spawn)
			r.run()
			return order
		}

		w, h := runWheel(), runHeap()
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("seed %d: dynamic orderings diverge at %d: wheel %+v, heap %+v", seed, i, w[i], h[i])
			}
		}
	}
}

// --- Reservations --------------------------------------------------------------

// orderWorld is the surface the reservation property test drives: the wheel
// with real reservations, and the reference heap where a reservation is
// simply the event it stands in for.
type orderWorld interface {
	now() Time
	at(t Time, prio int, fn func())
	// reserve takes a position and returns its two operations: has the firing
	// order passed it, and run fn there (legal only while not passed).
	reserve(t Time, prio int) (passed func() bool, materialise func(fn func()))
	run() Time
}

type wheelWorld struct{ s *Scheduler }

func (w wheelWorld) now() Time                      { return w.s.Now() }
func (w wheelWorld) at(t Time, prio int, fn func()) { w.s.AtPrio(t, prio, fn) }
func (w wheelWorld) run() Time                      { return w.s.Run() }
func (w wheelWorld) reserve(t Time, prio int) (func() bool, func(func())) {
	r := w.s.Reserve(t, prio)
	return func() bool { return w.s.Passed(r) },
		func(fn func()) { w.s.AtReserved(r, func(_, _ any) { fn() }, nil, nil) }
}

// heapWorld always holds the real event: it fires at the reserved key whether
// or not anything was materialised there, and runs whatever was armed.
type heapWorld struct{ r *refSched }

func (h heapWorld) now() Time                      { return h.r.now }
func (h heapWorld) at(t Time, prio int, fn func()) { h.r.at(t, prio, fn) }
func (h heapWorld) run() Time                      { h.r.run(); return h.r.now }
func (h heapWorld) reserve(t Time, prio int) (func() bool, func(func())) {
	fired := false
	var armed func()
	h.r.at(t, prio, func() {
		fired = true
		if armed != nil {
			armed()
		}
	})
	return func() bool { return fired }, func(fn func()) { armed = fn }
}

// resEntry is one line of the reservation workload's log: item idx fired at
// instant at, or was asked about there and answered passed.
type resEntry struct {
	at     Time
	idx    int
	query  bool
	passed bool
}

// reservationWorkload schedules a seeded mix of plain events, reservations
// left to lapse, reservations a trigger event queries and materialises if it
// still can, and events that reserve and trigger from inside a callback. All
// randomness is drawn up front, so both worlds see one script. The log holds
// every firing, and every Passed answer with the instant it was given.
func reservationWorkload(w orderWorld, seed int64) (log []resEntry, end Time) {
	const n = 4000
	rng := rand.New(rand.NewSource(seed ^ 0x7265737276))
	instant := func() Time {
		switch rng.Intn(8) {
		case 0: // level-0 collisions at tiny instants
			return Time(rng.Int63n(64))
		case 1: // straddle the 2^48 ps horizon
			return Time(int64(250*Second) + rng.Int63n(int64(100*Second)))
		case 2: // deep overflow
			return Time(rng.Int63n(int64(4000 * Second)))
		default:
			return Time(rng.Int63n(int64(5 * Millisecond)))
		}
	}
	prio := func() int { return rng.Intn(5) - 2 }
	// offset is how far from a reservation its trigger lands: on the same
	// instant half the time (prio and seq decide), else a picosecond or
	// microseconds either side.
	offset := func() Duration {
		switch rng.Intn(6) {
		case 0, 1, 2:
			return 0
		case 3:
			return Duration(rng.Int63n(3) - 1)
		case 4:
			return -Duration(rng.Int63n(int64(20 * Microsecond)))
		default:
			return Duration(rng.Int63n(int64(20 * Microsecond)))
		}
	}
	// trigger schedules, no earlier than from, the event that queries the
	// reservation for item i and materialises it if the order allows.
	trigger := func(i int, t, from Time, p int, passed func() bool, materialise func(func())) {
		if t < from {
			t = from
		}
		w.at(t, p, func() {
			gone := passed()
			log = append(log, resEntry{at: w.now(), idx: i, query: true, passed: gone})
			if !gone {
				materialise(func() { log = append(log, resEntry{at: w.now(), idx: i}) })
			}
		})
	}
	for i := 0; i < n; i++ {
		i, t, p := i, instant(), prio()
		switch rng.Intn(4) {
		case 0: // a plain event
			w.at(t, p, func() { log = append(log, resEntry{at: w.now(), idx: i}) })
		case 1: // a reservation nobody comes back to
			w.reserve(t, p)
		case 2: // a reservation and a trigger scheduled around it
			passed, materialise := w.reserve(t, p)
			trigger(i, t.Add(offset()), 0, prio(), passed, materialise)
		default: // an event that reserves ahead of itself, as a port's drain does
			ahead := Duration(rng.Int63n(int64(2 * Microsecond)))
			if rng.Intn(4) == 0 {
				ahead = Duration(rng.Int63n(int64(600 * Second)))
			}
			p2, p3, off := prio(), prio(), offset()
			w.at(t, p, func() {
				log = append(log, resEntry{at: w.now(), idx: i})
				at := w.now().Add(ahead)
				passed, materialise := w.reserve(at, p2)
				trigger(n+i, at.Add(off), w.now(), p3, passed, materialise)
			})
		}
	}
	return log, w.run()
}

// TestReservationsMatchReferenceHeap: with a random subset of schedules
// turned into reservations — materialised, lapsed, or merely queried — the
// wheel fires the same events at the same instants in the same order as a
// heap that always holds the real event, answers Passed as "that event has
// fired", and ends its Run at the same instant.
func TestReservationsMatchReferenceHeap(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		wl, wEnd := reservationWorkload(wheelWorld{NewScheduler(seed)}, seed)
		hl, hEnd := reservationWorkload(heapWorld{&refSched{}}, seed)
		if wEnd != hEnd {
			t.Fatalf("seed %d: wheel run ended at %v, heap at %v", seed, wEnd, hEnd)
		}
		if len(wl) != len(hl) {
			t.Fatalf("seed %d: wheel logged %d entries, heap %d", seed, len(wl), len(hl))
		}
		queries, late := 0, 0
		for i := range wl {
			if wl[i] != hl[i] {
				t.Fatalf("seed %d: logs diverge at entry %d: wheel %+v, heap %+v", seed, i, wl[i], hl[i])
			}
			if wl[i].query {
				queries++
				if wl[i].passed {
					late++
				}
			}
		}
		if queries < 500 || late < queries/10 || late > 9*queries/10 {
			t.Fatalf("seed %d: script is lopsided: %d of %d queries came too late", seed, late, queries)
		}
	}
}

// TestPassedAtSameInstantBoundaries pins Passed against the executing
// event's own key, one field at a time.
func TestPassedAtSameInstantBoundaries(t *testing.T) {
	s := NewScheduler(1)
	at := Time(Microsecond)
	type probe struct {
		name string
		r    Reservation
		want bool
	}
	var probes []probe
	add := func(name string, t Time, prio int, want bool) {
		probes = append(probes, probe{name, s.Reserve(t, prio), want})
	}
	add("earlier instant", at-1, PrioReport, true)
	add("same instant, lower prio", at, PrioControl, true)
	add("same instant and prio, lower seq", at, PrioDeliver, true)
	checked := false
	s.AtPrio(at, PrioDeliver, func() {
		for _, p := range probes {
			if got := s.Passed(p.r); got != p.want {
				t.Errorf("%s: Passed = %v inside the event, want %v", p.name, got, p.want)
			}
		}
		checked = true
	})
	add("same instant and prio, higher seq", at, PrioDeliver, false)
	add("same instant, higher prio", at, PrioDrain, false)
	add("later instant", at+1, PrioControl, false)
	for _, p := range probes {
		if s.Passed(p.r) {
			t.Errorf("%s: passed before anything ran", p.name)
		}
	}
	if end := s.RunUntil(at); end != at || !checked {
		t.Fatalf("RunUntil = %v, checked = %v", end, checked)
	}
	// Outside an event, after RunUntil, everything at the deadline is behind.
	for _, p := range probes {
		if want := p.r.at <= at; s.Passed(p.r) != want {
			t.Errorf("%s: Passed = %v after RunUntil(%v), want %v", p.name, !want, at, want)
		}
	}
}

func TestRunEndsAtLatestReservation(t *testing.T) {
	s := NewScheduler(1)
	s.At(Time(10*Nanosecond), func() {})
	r := s.Reserve(Time(50*Nanosecond), PrioDrain)
	s.Reserve(Time(20*Nanosecond), PrioDrain)
	if end := s.Run(); end != Time(50*Nanosecond) {
		t.Fatalf("Run ended at %v, want the latest reservation, 50ns", end)
	}
	if !s.Passed(r) {
		t.Fatal("a drained Run leaves nothing ahead of the firing order")
	}
	// A reservation made after the drain materialises into an event.
	r2 := s.Reserve(s.Now().Add(Microsecond), PrioDrain)
	fired := false
	s.AtReserved(r2, func(_, _ any) { fired = true }, nil, nil)
	if end := s.Run(); !fired || end != r2.at {
		t.Fatalf("materialised event: fired = %v, end = %v, want %v", fired, end, r2.at)
	}
}

func TestReserveInThePastPanics(t *testing.T) {
	s := NewScheduler(1)
	r := s.Reserve(Time(5*Nanosecond), PrioDrain)
	s.RunUntil(Time(10 * Nanosecond))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Reserve before now", func() { s.Reserve(Time(9*Nanosecond), PrioDrain) })
	mustPanic("AtReserved on a passed reservation", func() { s.AtReserved(r, func(_, _ any) {}, nil, nil) })
}

// --- AtArgs ------------------------------------------------------------------

func TestAtArgsDeliversArguments(t *testing.T) {
	s := NewScheduler(1)
	type payload struct{ v int }
	p1, p2 := &payload{1}, &payload{2}
	var got1, got2 *payload
	s.AtArgs(Time(Nanosecond), PrioDeliver, func(a, b any) {
		got1, got2 = a.(*payload), b.(*payload)
	}, p1, p2)
	s.AfterArgs(2*Nanosecond, PrioDeliver, func(a, b any) {
		if a.(*payload) != p2 {
			t.Error("AfterArgs delivered wrong argument")
		}
	}, p2, nil)
	s.Run()
	if got1 != p1 || got2 != p2 {
		t.Fatal("AtArgs did not deliver its arguments")
	}
}

// --- Zero-allocation assertions ---------------------------------------------

func TestSchedulerSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 128; i++ {
		s.After(Duration(i+1)*Nanosecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		s.After(Nanosecond, fn)
		s.step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSchedulerCancelZeroAllocs(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		s.After(Duration(i+1)*Nanosecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		s.After(Microsecond, fn).Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSchedulerAtArgsZeroAllocs(t *testing.T) {
	s := NewScheduler(1)
	var hits int
	target := &hits
	fn := func(a, b any) { *(a.(*int))++ }
	for i := 0; i < 128; i++ {
		s.AfterArgs(Duration(i+1)*Nanosecond, PrioDeliver, fn, target, nil)
	}
	s.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		s.AfterArgs(Nanosecond, PrioDeliver, fn, target, nil)
		s.step()
	})
	if allocs != 0 {
		t.Fatalf("AtArgs schedule+fire allocates %.1f allocs/op, want 0", allocs)
	}
}

// --- Benchmarks --------------------------------------------------------------

// BenchmarkSchedulerSchedule measures raw schedule throughput across mixed
// wheel levels, draining in batches.
func BenchmarkSchedulerSchedule(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Duration(i%1000+1)*Nanosecond, fn)
		if s.Pending() >= 4096 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkSchedulerCancel measures the schedule+cancel churn path.
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		s.After(Duration(i+1)*Nanosecond, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Microsecond, fn).Cancel()
	}
}
