package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1ns"},
		{1500 * Picosecond, "1.5ns"},
		{500 * Nanosecond, "500ns"},
		{Microsecond, "1µs"},
		{2*Microsecond + 500*Nanosecond, "2.5µs"},
		{Millisecond, "1ms"},
		{Second, "1s"},
		{90 * Second, "90s"},
		{-500 * Nanosecond, "-500ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(500 * Nanosecond)
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatal("ordering broken")
	}
	if d := t1.Sub(t0); d != 500*Nanosecond {
		t.Fatalf("Sub = %v, want 500ns", d)
	}
	if t1.Nanoseconds() != 500 {
		t.Fatalf("Nanoseconds = %v, want 500", t1.Nanoseconds())
	}
	if t1.Microseconds() != 0.5 {
		t.Fatalf("Microseconds = %v, want 0.5", t1.Microseconds())
	}
}

func TestStdConversionRoundTrip(t *testing.T) {
	d := FromStd(3 * time.Microsecond)
	if d != 3*Microsecond {
		t.Fatalf("FromStd = %v", d)
	}
	if d.Std() != 3*time.Microsecond {
		t.Fatalf("Std = %v", d.Std())
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.At(30*Time(Nanosecond), func() { order = append(order, 3) })
	s.At(10*Time(Nanosecond), func() { order = append(order, 1) })
	s.At(20*Time(Nanosecond), func() { order = append(order, 2) })
	end := s.Run()
	if end != 30*Time(Nanosecond) {
		t.Fatalf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSchedulerSameInstantPriorityThenSeq(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	at := Time(Microsecond)
	s.AtPrio(at, PrioDrain, func() { order = append(order, "drain") })
	s.AtPrio(at, PrioDeliver, func() { order = append(order, "deliver-a") })
	s.AtPrio(at, PrioControl, func() { order = append(order, "control") })
	s.AtPrio(at, PrioDeliver, func() { order = append(order, "deliver-b") })
	s.Run()
	want := []string{"control", "deliver-a", "deliver-b", "drain"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler(1)
	var second Time
	s.After(100*Nanosecond, func() {
		s.After(50*Nanosecond, func() { second = s.Now() })
	})
	s.Run()
	if second != Time(150*Nanosecond) {
		t.Fatalf("nested After fired at %v, want 150ns", second)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(100*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50*Time(Nanosecond), func() {})
	})
	s.Run()
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(100*Nanosecond, func() { fired = true })
	e.Cancel()
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	e.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after cancel+run", s.Pending())
	}
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	var victim *Event
	s.At(10*Time(Nanosecond), func() { victim.Cancel() })
	victim = s.At(20*Time(Nanosecond), func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event fired despite cancellation by earlier event")
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	s.At(Time(Second), func() { fired = append(fired, s.Now()) })
	s.At(Time(3*Second), func() { fired = append(fired, s.Now()) })
	end := s.RunUntil(Time(2 * Second))
	if end != Time(2*Second) {
		t.Fatalf("RunUntil returned %v, want 2s", end)
	}
	if len(fired) != 1 {
		t.Fatalf("fired %d events, want 1", len(fired))
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// Resume and finish.
	s.Run()
	if len(fired) != 2 || fired[1] != Time(3*Second) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	s := NewScheduler(1)
	var at []Time
	cancel := s.Every(0, Second, func() {
		at = append(at, s.Now())
		if len(at) == 4 {
			// cancel from inside the callback
			s.After(Nanosecond, func() {})
		}
	})
	s.At(Time(3*Second)+1, func() { cancel() })
	s.Run()
	if len(at) != 4 {
		t.Fatalf("fired %d times, want 4: %v", len(at), at)
	}
	for i, want := range []Time{0, Time(Second), Time(2 * Second), Time(3 * Second)} {
		if at[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(42)
		var trace []int64
		var chain func()
		chain = func() {
			trace = append(trace, int64(s.Now()))
			if len(trace) < 50 {
				jitter := Duration(s.Rand().Intn(1000)) * Nanosecond
				s.After(jitter+1, chain)
			}
		}
		s.At(0, chain)
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of (time, prio) pairs, the scheduler fires them in
// nondecreasing (time, prio) order, with seq as the final tiebreak.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(times []uint16, prios []int8) bool {
		s := NewScheduler(7)
		type key struct {
			t    Time
			prio int
			seq  int
		}
		var fired []key
		for i, tt := range times {
			prio := 0
			if i < len(prios) {
				prio = int(prios[i])
			}
			at := Time(tt) * Time(Nanosecond)
			i := i
			prio2 := prio
			s.AtPrio(at, prio2, func() {
				fired = append(fired, key{s.Now(), prio2, i})
			})
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.t > b.t {
				return false
			}
			if a.t == b.t && a.prio > b.prio {
				return false
			}
			if a.t == b.t && a.prio == b.prio && a.seq > b.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n < b.N {
			s.After(Nanosecond, chain)
		}
	}
	s.At(0, chain)
	b.ResetTimer()
	s.Run()
}

func TestAccessorsAndConstructors(t *testing.T) {
	s := NewScheduler(1)
	e := s.AfterPrio(10*Nanosecond, PrioControl, func() {})
	if e.Time() != Time(10*Nanosecond) {
		t.Fatalf("event time = %v", e.Time())
	}
	s.Run()
	if s.Fired() != 1 {
		t.Fatalf("fired = %d", s.Fired())
	}
	if Nanoseconds(5) != 5*Nanosecond || Microseconds(5) != 5*Microsecond {
		t.Fatal("constructors broken")
	}
	if Milliseconds(5) != 5*Millisecond || Seconds(5) != 5*Second {
		t.Fatal("constructors broken")
	}
	d := 1500 * Millisecond
	if d.Seconds() != 1.5 || Time(d).Seconds() != 1.5 {
		t.Fatal("Seconds broken")
	}
	if d.Nanoseconds() != 1.5e9 || d.Microseconds() != 1.5e6 {
		t.Fatal("unit conversions broken")
	}
}

func TestEveryValidation(t *testing.T) {
	s := NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period should panic")
		}
	}()
	s.Every(0, 0, func() {})
}

func TestEveryCancelInsideCallback(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	var cancel func()
	cancel = s.Every(0, Second, func() {
		n++
		if n == 2 {
			cancel()
		}
	})
	s.RunUntil(Time(10 * Second))
	if n != 2 {
		t.Fatalf("fired %d times after self-cancel", n)
	}
}

func TestRunUntilWithEmptyQueue(t *testing.T) {
	s := NewScheduler(1)
	end := s.RunUntil(Time(Second))
	if end != Time(Second) || s.Now() != Time(Second) {
		t.Fatalf("clock = %v", end)
	}
}
