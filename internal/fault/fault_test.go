package fault

import (
	"reflect"
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

type sink struct{ got int }

func (s *sink) HandleFrame(_ *netsim.Port, f *netsim.Frame) { s.got++; f.Release() }

func link(sched *sim.Scheduler) (*netsim.Port, *sink) {
	rx := &sink{}
	a := netsim.NewPort(sched, nil, "a")
	b := netsim.NewPort(sched, rx, "b")
	netsim.Connect(a, b, units.Rate10G, sim.Microsecond)
	return a, rx
}

func TestLinkOutageTimelineAndLog(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, rx := link(sched)
	p := NewPlan(sched)

	down := sim.Time(10 * sim.Microsecond)
	p.LinkOutage(a, down, 20*sim.Microsecond)

	send := func() { a.Send(netsim.NewFrameBytes(make([]byte, 100))) }
	sched.At(sim.Time(1*sim.Microsecond), send)  // delivered
	sched.At(sim.Time(15*sim.Microsecond), send) // blackholed
	sched.At(sim.Time(40*sim.Microsecond), send) // delivered after recovery
	sched.Run()

	if rx.got != 2 {
		t.Fatalf("delivered %d, want 2", rx.got)
	}
	if a.Blackholed != 1 {
		t.Fatalf("Blackholed = %d, want 1", a.Blackholed)
	}
	want := []Record{
		{At: down, Kind: LinkDown, Target: "a<->b"},
		{At: down.Add(20 * sim.Microsecond), Kind: LinkUp, Target: "a<->b"},
	}
	if !reflect.DeepEqual(p.Log, want) {
		t.Fatalf("log = %v, want %v", p.Log, want)
	}
}

func TestLossBurstRaisesAndRestoresLossProb(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, _ := link(sched)
	a.LossProb = 0.001 // pre-existing medium error rate
	p := NewPlan(sched)
	p.LossBurst(a, sim.Time(5*sim.Microsecond), 10*sim.Microsecond, 0.5)

	var during, after float64
	sched.At(sim.Time(6*sim.Microsecond), func() { during = a.EffectiveLossProb() })
	sched.At(sim.Time(16*sim.Microsecond), func() { after = a.EffectiveLossProb() })
	sched.Run()

	if during != 0.5 {
		t.Fatalf("effective loss during burst = %v, want 0.5", during)
	}
	if after != 0.001 {
		t.Fatalf("effective loss after burst = %v, want the base 0.001", after)
	}
	if len(p.Log) != 2 || p.Log[0].Kind != LossBurstStart || p.Log[1].Kind != LossBurstEnd {
		t.Fatalf("log = %v", p.Log)
	}
}

func TestOverlappingLossBurstsRestoreCleanly(t *testing.T) {
	// The regression this guards: with capture-and-restore semantics, the
	// second burst's start captured the first burst's elevated value as
	// "before", so after both windows closed the link was stuck at the
	// first burst's probability forever. Composed sources must return to
	// the base rate once every window has closed, and overlap as the max.
	sched := sim.NewScheduler(1)
	a, _ := link(sched)
	a.LossProb = 0.001
	p := NewPlan(sched)
	us := sim.Microsecond
	p.LossBurst(a, sim.Time(5*us), 10*us, 0.3)  // [5, 15)
	p.LossBurst(a, sim.Time(10*us), 10*us, 0.2) // [10, 20) overlaps

	probeAt := func(at sim.Duration) *float64 {
		v := new(float64)
		sched.At(sim.Time(at), func() { *v = a.EffectiveLossProb() })
		return v
	}
	first := probeAt(6 * us)    // only burst 1
	overlap := probeAt(12 * us) // both: max(0.3, 0.2)
	second := probeAt(17 * us)  // only burst 2
	after := probeAt(25 * us)   // neither
	sched.Run()

	if *first != 0.3 || *overlap != 0.3 || *second != 0.2 {
		t.Fatalf("effective loss = %v/%v/%v, want 0.3/0.3/0.2", *first, *overlap, *second)
	}
	if *after != 0.001 {
		t.Fatalf("effective loss after overlapping bursts = %v, want the base 0.001 (stale restore)", *after)
	}
	if len(p.Log) != 4 {
		t.Fatalf("log = %v, want 4 events", p.Log)
	}
}

// fakeRainer records SetRaining transitions with a refcount, mirroring
// colo.Circuit's semantics.
type fakeRainer struct {
	depth int
	log   []string
}

func (f *fakeRainer) FaultName() string { return "Carteret<->Secaucus/microwave" }
func (f *fakeRainer) SetRaining(r bool) {
	if r {
		f.depth++
		f.log = append(f.log, "start")
	} else {
		f.depth--
		f.log = append(f.log, "end")
	}
}

func TestRainTimelineFiresAndLogs(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := NewPlan(sched)
	r := &fakeRainer{}
	us := sim.Microsecond
	p.RainTimeline(r,
		RainWindow{At: sim.Time(5 * us), Dur: 10 * us},  // [5, 15)
		RainWindow{At: sim.Time(12 * us), Dur: 10 * us}, // [12, 22) overlaps
	)
	var midDepth int
	sched.At(sim.Time(13*us), func() { midDepth = r.depth })
	sched.Run()

	if midDepth != 2 {
		t.Fatalf("depth during overlap = %d, want 2", midDepth)
	}
	if r.depth != 0 {
		t.Fatalf("final depth = %d, want 0", r.depth)
	}
	want := []Record{
		{At: sim.Time(5 * us), Kind: RainStart, Target: "Carteret<->Secaucus/microwave"},
		{At: sim.Time(12 * us), Kind: RainStart, Target: "Carteret<->Secaucus/microwave"},
		{At: sim.Time(15 * us), Kind: RainEnd, Target: "Carteret<->Secaucus/microwave"},
		{At: sim.Time(22 * us), Kind: RainEnd, Target: "Carteret<->Secaucus/microwave"},
	}
	if !reflect.DeepEqual(p.Log, want) {
		t.Fatalf("log = %v, want %v", p.Log, want)
	}
}

// fakeSwitch records Fail/Recover calls.
type fakeSwitch struct {
	name string
	up   bool
	log  *[]string
}

func (f *fakeSwitch) FaultName() string { return f.name }
func (f *fakeSwitch) Fail()             { f.up = false; *f.log = append(*f.log, f.name+":fail") }
func (f *fakeSwitch) Recover()          { f.up = true; *f.log = append(*f.log, f.name+":recover") }

func TestSwitchOutageCallsFailThenRecover(t *testing.T) {
	sched := sim.NewScheduler(1)
	var calls []string
	sw := &fakeSwitch{name: "spine1", up: true, log: &calls}
	p := NewPlan(sched)
	p.SwitchOutage(sw, sim.Time(3*sim.Microsecond), 7*sim.Microsecond)
	sched.Run()

	if !reflect.DeepEqual(calls, []string{"spine1:fail", "spine1:recover"}) {
		t.Fatalf("calls = %v", calls)
	}
	if !sw.up {
		t.Fatal("switch left failed after recovery event")
	}
	if len(p.Log) != 2 || p.Log[0].Kind != SwitchFail || p.Log[1].Kind != SwitchRecover {
		t.Fatalf("log = %v", p.Log)
	}
}

// fakeProcess records Crash calls.
type fakeProcess struct {
	name string
	up   bool
	log  *[]string
}

func (f *fakeProcess) FaultName() string { return f.name }
func (f *fakeProcess) Crash()            { f.up = false; *f.log = append(*f.log, f.name+":crash") }

func TestProcessFailFiresAndLogs(t *testing.T) {
	sched := sim.NewScheduler(1)
	var calls []string
	pr := &fakeProcess{name: "EXCH", up: true, log: &calls}
	p := NewPlan(sched)
	at := sim.Time(9 * sim.Microsecond)
	p.ProcessFail(pr, at)
	sched.Run()

	if pr.up {
		t.Fatal("process still up after ProcessFail")
	}
	if !reflect.DeepEqual(calls, []string{"EXCH:crash"}) {
		t.Fatalf("calls = %v", calls)
	}
	want := []Record{{At: at, Kind: ProcessFail, Target: "EXCH"}}
	if !reflect.DeepEqual(p.Log, want) {
		t.Fatalf("log = %v, want %v", p.Log, want)
	}
}

// TestProcessEventKindsRender pins the event-log names: a replayed log is
// only as good as its rendering.
func TestProcessEventKindsRender(t *testing.T) {
	if ProcessFail.String() != "ProcessFail" {
		t.Fatalf("kind name = %q", ProcessFail.String())
	}
}

// TestRandomizeDeterministic pins the seed contract: the same seed and
// config produce the same fired-event log, twice.
func TestRandomizeDeterministic(t *testing.T) {
	run := func() []Record {
		sched := sim.NewScheduler(42)
		a, _ := link(sched)
		c, _ := link(sched)
		var calls []string
		sw := &fakeSwitch{name: "spine0", up: true, log: &calls}
		p := NewPlan(sched)
		p.Randomize(sched.Rand(), RandomConfig{
			Links:      []*netsim.Port{a, c},
			Switches:   []Switch{sw},
			Start:      sim.Time(1 * sim.Microsecond),
			End:        sim.Time(1 * sim.Millisecond),
			Outages:    4,
			MinDown:    5 * sim.Microsecond,
			MaxDown:    50 * sim.Microsecond,
			LossBursts: 2,
			BurstProb:  0.3,
			BurstDur:   20 * sim.Microsecond,
		})
		sched.Run()
		return p.Log
	}
	first, second := run(), run()
	if len(first) != 2*4+2*2 {
		t.Fatalf("fired %d events, want %d", len(first), 2*4+2*2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed produced different fault logs:\n%v\n%v", first, second)
	}
}

// TestLogOrderIsFiringOrder: overlapping outages interleave in the log by
// virtual firing time, not insertion order.
func TestLogOrderIsFiringOrder(t *testing.T) {
	sched := sim.NewScheduler(1)
	mk := func(name string) *netsim.Port {
		a := netsim.NewPort(sched, nil, name)
		b := netsim.NewPort(sched, &sink{}, name+"'")
		netsim.Connect(a, b, units.Rate10G, sim.Microsecond)
		return a
	}
	first, second := mk("first"), mk("second")
	p := NewPlan(sched)
	// Inserted in reverse of firing order.
	p.LinkOutage(second, sim.Time(20*sim.Microsecond), 30*sim.Microsecond)
	p.LinkOutage(first, sim.Time(10*sim.Microsecond), 50*sim.Microsecond)
	sched.Run()

	want := []Record{
		{At: sim.Time(10 * sim.Microsecond), Kind: LinkDown, Target: "first<->first'"},
		{At: sim.Time(20 * sim.Microsecond), Kind: LinkDown, Target: "second<->second'"},
		{At: sim.Time(50 * sim.Microsecond), Kind: LinkUp, Target: "second<->second'"},
		{At: sim.Time(60 * sim.Microsecond), Kind: LinkUp, Target: "first<->first'"},
	}
	if !reflect.DeepEqual(p.Log, want) {
		t.Fatalf("log = %v, want %v", p.Log, want)
	}
}
