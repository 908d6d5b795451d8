package device

import (
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
	"tradenet/internal/units"
)

// arrival is one replica reaching a sink, in global arrival order.
type arrival struct {
	port int
	at   sim.Duration // since the frame reached the switch
	fork int
	span sim.Duration // the switching span the replica's trace recorded
}

// arrivalLog is the handler of every sink in a fan-out test, so replicas
// that land at one instant keep the order their events fired in.
type arrivalLog struct {
	sched   *sim.Scheduler
	sw      string
	ingress sim.Time
	got     []arrival
}

type arrivalSink struct {
	log  *arrivalLog
	port int
}

func (s arrivalSink) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	a := arrival{port: s.port, at: s.log.sched.Now().Sub(s.log.ingress), fork: -1}
	if t := f.Trace; t != nil {
		a.fork = t.Fork
		for _, sp := range t.Spans() {
			if sp.Where == s.log.sw && sp.Cause == trace.CauseSwitching {
				a.span = sp.End.Sub(sp.Start)
			}
		}
		t.Finish(trace.EndConsumed)
		f.Trace = nil
	}
	s.log.got = append(s.log.got, a)
	f.Release()
}

// TestL1SwitchFanoutEvents pins the L1 fan-out's event budget and everything
// batching it must not move. A frame costs one deferred event per group of
// legs sharing a latency (the plain legs, the legs behind a merge unit) — not
// one per leg — while replicas still leave in leg order, arrive at the same
// picosecond, and carry the same trace fork ordinals: a pure fan-out forks
// legs 1..n-1 in leg order and its last leg keeps the original's ordinal,
// exactly as when every leg had an event of its own. In a circuit that mixes
// plain and merged legs the forks are taken when each group leaves, plain
// group first, and the last merged leg keeps the original.
func TestL1SwitchFanoutEvents(t *testing.T) {
	const fan, merge = 5 * sim.Nanosecond, 55 * sim.Nanosecond
	cases := []struct {
		name   string
		outs   []int
		merged []int // outputs a second ingress also feeds
		want   []arrival
		groups uint64
	}{
		{
			name: "pure fan-out", outs: []int{3, 1, 4, 2}, groups: 1,
			want: []arrival{{3, fan, 1, fan}, {1, fan, 2, fan}, {4, fan, 3, fan}, {2, fan, 0, fan}},
		},
		{
			name: "all legs merged", outs: []int{1, 2, 3}, merged: []int{1, 2, 3}, groups: 1,
			want: []arrival{{1, merge, 1, merge}, {2, merge, 2, merge}, {3, merge, 0, merge}},
		},
		{
			name: "plain and merged legs interleaved", outs: []int{1, 2, 3, 4, 5}, merged: []int{2, 4}, groups: 2,
			want: []arrival{{1, fan, 1, fan}, {3, fan, 2, fan}, {5, fan, 3, fan}, {2, merge, 4, merge}, {4, merge, 0, merge}},
		},
		{
			name: "last leg plain, merged group still owns the frame", outs: []int{2, 1}, merged: []int{2}, groups: 2,
			want: []arrival{{1, fan, 1, fan}, {2, merge, 0, merge}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := sim.NewScheduler(1)
			sw := NewL1Switch(sched, "l1s", 8, DefaultL1SConfig())
			log := &arrivalLog{sched: sched, sw: sw.Name}
			tx := netsim.NewPort(sched, nil, "tx")
			netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
			for i := 1; i <= 5; i++ {
				netsim.Connect(sw.Port(i), netsim.NewPort(sched, arrivalSink{log, i}, "rx"), units.Rate10G, 0)
			}
			sw.Circuit(0, c.outs...)
			if len(c.merged) > 0 {
				sw.Circuit(6, c.merged...)
			}

			rec := trace.NewRecorder(1, 64)
			f := netsim.NewFrame()
			f.Data = pkt.AppendUDPFrame(f.Data,
				pkt.UDPAddr{MAC: pkt.HostMAC(100), IP: pkt.HostIP(100), Port: 1},
				pkt.UDPAddr{MAC: pkt.HostMAC(50), IP: pkt.HostIP(50), Port: 9}, 0, make([]byte, 100))
			f.Trace = rec.Start(0)
			ser := units.SerializationDelay(pkt.WireSize(len(f.Data))+netsim.FrameOverheadBytes, units.Rate10G)
			log.ingress = sim.Time(ser)
			tx.Send(f)
			// The legs are fixed at ingress: darkening the circuit while the
			// frame is inside the switch does not recall them.
			sched.At(sim.Time(ser+sim.Nanosecond), func() { sw.Circuit(0) })
			sched.Run()

			if len(log.got) != len(c.want) {
				t.Fatalf("%d replicas arrived, want %d: %+v", len(log.got), len(c.want), log.got)
			}
			for i, w := range c.want {
				if log.got[i] != w {
					t.Errorf("arrival %d = %+v, want %+v", i, log.got[i], w)
				}
			}
			// The sender's drain and delivery, the darkening closure, one event
			// per latency group, and a drain and a delivery per leg.
			if want := 3 + c.groups + 2*uint64(len(c.outs)); sched.Fired() != want {
				t.Errorf("fired %d events, want %d (%d fan-out group(s))", sched.Fired(), want, c.groups)
			}
			if sw.Forwarded != 1 || rec.Created() != len(c.outs) {
				t.Errorf("forwarded = %d, trace contexts = %d, want 1 and %d", sw.Forwarded, rec.Created(), len(c.outs))
			}
		})
	}
}

// TestL1SwitchCircuitBookkeeping checks the incrementally maintained feeder
// counts against the definition — an output is a merge output exactly when
// more than one circuit leg points at it — through replacements, removals
// and duplicate legs, and that merge outputs get the merge unit's buffer.
func TestL1SwitchCircuitBookkeeping(t *testing.T) {
	cfg := DefaultL1SConfig()
	cfg.MergeQueueBytes = 3000
	sched := sim.NewScheduler(1)
	sw := NewL1Switch(sched, "l1s", 6, cfg)
	circuits := map[int][]int{}
	check := func(step string) {
		t.Helper()
		feeders := make([]int, sw.Ports())
		for in := 0; in < sw.Ports(); in++ { // by index: map order must not matter
			for _, o := range circuits[in] {
				feeders[o]++
			}
		}
		for o, n := range feeders {
			if got := sw.IsMergeOutput(o); got != (n > 1) {
				t.Fatalf("%s: IsMergeOutput(%d) = %v with %d feeder(s)", step, o, got, n)
			}
		}
	}
	set := func(step string, in int, outs ...int) {
		circuits[in] = outs
		sw.Circuit(in, outs...)
		check(step)
	}
	set("first circuit", 0, 3, 4)
	set("second feeder of 4", 1, 4, 5)
	set("third feeder of 4", 2, 4)
	set("replace with the same set", 1, 4, 5)
	set("re-point 1 away", 1, 5)
	set("darken 2", 2)
	set("duplicate leg", 0, 3, 3)
	set("repair", 0, 3, 4)

	// Port 4 was a merge output: it keeps the merge unit's buffer, so a
	// 3000-byte queue tail-drops the third 1400-byte frame of a burst.
	rx := newSink(sched, "rx")
	netsim.Connect(sw.Port(4), rx.port, units.Rate10G, 0)
	for i := 0; i < 3; i++ {
		f := netsim.NewFrame()
		f.Data = append(f.Data, make([]byte, 1400)...)
		sw.Port(4).Send(f)
	}
	if sw.Port(4).Drops != 1 {
		t.Fatalf("merge output dropped %d of 3 frames, want 1 (MergeQueueBytes not applied)", sw.Port(4).Drops)
	}
	sched.Run()
}
