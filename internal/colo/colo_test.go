package colo

import (
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/sim"
)

// discard terminates a circuit direction a test never receives on.
var discard = netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) {})

type counter struct {
	n  int
	at []sim.Time
	s  *sim.Scheduler
}

func (c *counter) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	c.n++
	c.at = append(c.at, c.s.Now())
}

func TestFacilitiesHostExpectedExchanges(t *testing.T) {
	if Mahwah.Exchanges[0] != "NYSE" {
		t.Fatal("NYSE lives in Mahwah")
	}
	if Carteret.Exchanges[0] != "NASDAQ" {
		t.Fatal("NASDAQ lives in Carteret")
	}
	if len(Secaucus.Exchanges) == 0 {
		t.Fatal("Secaucus hosts exchanges")
	}
}

func TestDistancesSymmetricAndTensOfMiles(t *testing.T) {
	pairs := [][2]string{{"Mahwah", "Secaucus"}, {"Carteret", "Secaucus"}, {"Carteret", "Mahwah"}}
	for _, p := range pairs {
		d1, d2 := lineOfSight(p[0], p[1]), lineOfSight(p[1], p[0])
		if d1 != d2 {
			t.Fatalf("asymmetric distance %v", p)
		}
		miles := float64(d1) / 1609.344
		if miles < 5 || miles > 50 {
			t.Fatalf("%v = %.0f miles, want tens of miles", p, miles)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown pair should panic")
		}
	}()
	lineOfSight("Mahwah", "Chicago")
}

func TestMicrowaveBeatsFiberOnLatency(t *testing.T) {
	sched := sim.NewScheduler(1)
	fiber := NewCircuit(sched, Mahwah, Carteret, DefaultFiber(), discard, discard)
	microwave := NewCircuit(sched, Mahwah, Carteret, DefaultMicrowave(), discard, discard)
	adv := fiber.Latency - microwave.Latency
	if adv <= 0 {
		t.Fatal("microwave should beat fiber")
	}
	// Over 33 miles: fiber ≈ 1.35×33mi at c/1.468 ≈ 351 µs... in µs range;
	// microwave ≈ 1.02×33mi at ~c ≈ 180 µs. Advantage ≈ 170 µs.
	us := adv.Microseconds()
	if us < 100 || us > 260 {
		t.Fatalf("advantage = %vµs, want ~170µs", us)
	}
}

func TestCircuitDeliversWithPropagation(t *testing.T) {
	sched := sim.NewScheduler(1)
	rxB := &counter{s: sched}
	c := NewCircuit(sched, Carteret, Secaucus, DefaultMicrowave(), discard, rxB)
	sched.At(0, func() { c.PortA.Send(&netsim.Frame{Data: make([]byte, 100)}) })
	sched.Run()
	if rxB.n != 1 {
		t.Fatalf("delivered %d", rxB.n)
	}
	if rxB.at[0] < sim.Time(c.Latency) {
		t.Fatalf("arrival %v before propagation %v", rxB.at[0], c.Latency)
	}
	if c.Config.Medium.String() != "microwave" || Fiber.String() != "fiber" {
		t.Fatal("medium names")
	}
}

func TestRainFadeCausesLossOnMicrowaveOnly(t *testing.T) {
	sched := sim.NewScheduler(7)
	rx := &counter{s: sched}
	mw := NewCircuit(sched, Carteret, Secaucus, DefaultMicrowave(), discard, rx)
	mw.Config.RainLossProb = 0.5 // heavy storm for test power
	mw.SetRaining(true)
	if !mw.Raining() {
		t.Fatal("rain state")
	}
	sched.At(0, func() {
		for i := 0; i < 400; i++ {
			mw.PortA.Send(&netsim.Frame{Data: make([]byte, 100)})
		}
	})
	sched.Run()
	if mw.PortA.Lost == 0 {
		t.Fatal("no rain losses")
	}
	if rx.n+int(mw.PortA.Lost) != 400 {
		t.Fatalf("conservation: %d delivered + %d lost != 400", rx.n, mw.PortA.Lost)
	}
	// Loss rate in the ballpark of the configured probability.
	rate := float64(mw.PortA.Lost) / 400
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("loss rate = %.2f, want ~0.5", rate)
	}

	// Sunshine restores the link.
	mw.SetRaining(false)
	before := rx.n
	sched.After(0, func() {
		for i := 0; i < 50; i++ {
			mw.PortA.Send(&netsim.Frame{Data: make([]byte, 100)})
		}
	})
	sched.Run()
	if rx.n-before != 50 {
		t.Fatalf("clear-weather delivery = %d/50", rx.n-before)
	}

	// Fiber ignores rain entirely.
	rxF := &counter{s: sched}
	fb := NewCircuit(sched, Carteret, Secaucus, DefaultFiber(), discard, rxF)
	fb.SetRaining(true)
	if fb.PortA.EffectiveLossProb() != 0 {
		t.Fatal("fiber should not fade in rain")
	}
}

func TestRainComposesWithLossBurst(t *testing.T) {
	// Rain starting during a scripted loss burst (or vice versa) must
	// not clobber the other window's restore: each is its own loss
	// source, the link runs at the max while both are open, and the base
	// rate returns only when the last window closes.
	sched := sim.NewScheduler(3)
	mw := NewCircuit(sched, Carteret, Secaucus, DefaultMicrowave(), discard, discard)
	mw.Config.RainLossProb = 0.1

	us := sim.Microsecond
	sched.At(sim.Time(5*us), func() { mw.PortA.SetLossSource("burst#1", 0.4) }) // burst [5, 20)
	sched.At(sim.Time(10*us), func() { mw.SetRaining(true) })                   // rain  [10, 30)
	sched.At(sim.Time(20*us), func() { mw.PortA.SetLossSource("burst#1", 0) })
	sched.At(sim.Time(30*us), func() { mw.SetRaining(false) })

	probe := func(at sim.Duration) *float64 {
		v := new(float64)
		sched.At(sim.Time(at), func() { *v = mw.PortA.EffectiveLossProb() })
		return v
	}
	burstOnly := probe(7 * us)
	both := probe(15 * us)
	rainOnly := probe(25 * us)
	clear := probe(35 * us)
	sched.Run()

	if *burstOnly != 0.4 || *both != 0.4 || *rainOnly != 0.1 || *clear != 0 {
		t.Fatalf("effective loss = %v/%v/%v/%v, want 0.4/0.4/0.1/0", *burstOnly, *both, *rainOnly, *clear)
	}
}

func TestOverlappingRainWindowsRefcount(t *testing.T) {
	sched := sim.NewScheduler(1)
	mw := NewCircuit(sched, Carteret, Secaucus, DefaultMicrowave(), discard, discard)
	mw.SetRaining(true)
	mw.SetRaining(true) // second storm cell overlaps the first
	mw.SetRaining(false)
	if !mw.Raining() || mw.PortA.EffectiveLossProb() != mw.Config.RainLossProb {
		t.Fatal("rain cleared while a window was still open")
	}
	mw.SetRaining(false)
	if mw.Raining() || mw.PortA.EffectiveLossProb() != 0 {
		t.Fatal("rain did not clear after the last window closed")
	}
}

func TestFiberHasMoreBandwidth(t *testing.T) {
	f, m := DefaultFiber(), DefaultMicrowave()
	if f.Bandwidth <= m.Bandwidth {
		t.Fatal("fiber should offer more bandwidth than microwave (§2)")
	}
}
