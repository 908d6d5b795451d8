package sim

import "testing"

// The self-profile must account for every fired event by handler kind and
// every placement by wheel destination — it is the evidence behind the
// sched.* registry namespace, so the books have to balance.
func TestSchedulerProfileAccounting(t *testing.T) {
	s := NewScheduler(1)
	var ran int
	s.At(Time(Microsecond), func() { ran++ })
	s.AfterArgs(Duration(2*Microsecond), PrioDeliver,
		func(a, b any) { ran++ }, nil, nil)
	s.AfterArgs3(Duration(3*Microsecond), PrioDeliver,
		func(a, b, c any) { ran++ }, nil, nil, nil)
	// A far-future event exercises an upper wheel level (or overflow).
	s.At(Time(Hour), func() { ran++ })
	s.Run()

	p := s.Profile()
	if ran != 4 {
		t.Fatalf("ran %d handlers, want 4", ran)
	}
	if p.Fired != s.Fired() {
		t.Fatalf("Profile().Fired = %d, Fired() = %d", p.Fired, s.Fired())
	}
	if got := p.FiredClosure + p.FiredArgs2 + p.FiredArgs3; got != p.Fired {
		t.Fatalf("per-kind fired counts sum to %d, total is %d", got, p.Fired)
	}
	if p.FiredClosure != 2 || p.FiredArgs2 != 1 || p.FiredArgs3 != 1 {
		t.Fatalf("fired by kind = closure %d / args2 %d / args3 %d, want 2/1/1",
			p.FiredClosure, p.FiredArgs2, p.FiredArgs3)
	}
	var placed uint64 = p.PlacedSingle + p.PlacedOverflow
	for _, n := range p.PlacedLevel {
		placed += n
	}
	if placed == 0 {
		t.Fatal("no placements recorded")
	}
}

// Occupancy reflects pending events and drains back to zero after Run.
func TestSchedulerOccupancy(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 8; i++ {
		i := i
		s.At(Time(Duration(i+1)*Millisecond), func() { _ = i })
	}
	var total int
	for _, n := range s.Occupancy() {
		total += n
	}
	// The single-event fast path keeps one event off the wheel; the rest
	// occupy slots somewhere.
	if total == 0 {
		t.Fatal("8 pending events but zero wheel occupancy")
	}
	s.Run()
	for lvl, n := range s.Occupancy() {
		if n != 0 {
			t.Fatalf("after Run, occupancy level %d = %d, want 0", lvl, n)
		}
	}
}
