package netsim

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from this tree's behaviour")

// TestPortDifferentialGolden drives several links through a seeded script of
// bursts, loss, link flaps and queue purges and compares everything a model
// can observe — the delivery log, every port counter, the final time and the
// position of the scheduler's RNG — against testdata/port_differential.golden.
//
// The golden file was recorded at the commit before ports stopped scheduling
// the end-of-serialization drain of an idle queue (when every transmit was
// followed by a drain event whether or not a frame was waiting). It is the
// proof that reserving that drain's place in the firing order instead, and
// scheduling it only when a frame turns up in time, moves nothing. The script
// uses no API newer than that commit, so the file can be re-recorded there
// with -update. Event counts are deliberately not part of it.
func TestPortDifferentialGolden(t *testing.T) {
	got := runPortScript(20240914)
	path := filepath.Join("testdata", "port_differential.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs from the golden file:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, the golden file %d", len(gl), len(wl))
}

// logSink records (time, port, frame id) for every arrival and releases the
// frame.
type logSink struct {
	sched *sim.Scheduler
	out   *bytes.Buffer
	idx   int
}

func (s *logSink) HandleFrame(_ *Port, f *Frame) {
	fmt.Fprintf(s.out, "rx %d p%d id=%d\n", int64(s.sched.Now()), s.idx, f.ID)
	f.Release()
}

// runPortScript runs the scripted plant and returns its observable record.
func runPortScript(seed int64) []byte {
	const (
		nPorts  = 8 // five unlike links, then three alike (the trio)
		nOps    = 900
		horizon = 3 * sim.Millisecond
	)
	var out bytes.Buffer
	sched := sim.NewScheduler(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x70727473)) // the script's own tape
	rates := []units.Bandwidth{units.Gbps, units.Rate10G, units.Rate10G, units.Rate25G, units.Gbps,
		units.Rate10G, units.Rate10G, units.Rate10G}
	props := []sim.Duration{0, 25 * sim.Nanosecond, 500 * sim.Nanosecond, 3 * sim.Microsecond, 40 * sim.Microsecond,
		25 * sim.Nanosecond, 25 * sim.Nanosecond, 25 * sim.Nanosecond}

	tx := make([]*Port, nPorts)
	for i := range tx {
		tx[i] = NewPort(sched, nil, fmt.Sprintf("tx%d", i))
		rx := NewPort(sched, &logSink{sched: sched, out: &out, idx: i}, fmt.Sprintf("rx%d", i))
		Connect(tx[i], rx, rates[i], props[i])
	}
	tx[1].CutThrough = true
	tx[2].LossProb = 0.15
	tx[3].SetQueueCapacity(6000)
	tx[4].LossProb = 0.02
	// The trio are the egress ports of one replication point: same rate, same
	// cable, fed the same frame at the same instant. Their drains and
	// deliveries collide to the picosecond, so the order of the log within an
	// instant is the order of their drain events — the one thing a misplaced
	// end-of-serialization drain changes without moving any timestamp.
	trio := tx[5:]
	for _, p := range trio {
		p.CutThrough = true
	}

	var nextID uint64
	send := func(p *Port, size int) {
		f := NewFrame()
		f.Data = append(f.Data, make([]byte, size)...)
		nextID++
		f.ID = nextID
		p.Send(f)
	}
	size := func() int { return 40 + rng.Intn(1460) }
	ser := func(p *Port, size int) sim.Duration {
		return units.SerializationDelay(pkt.WireSize(size)+FrameOverheadBytes, p.Rate())
	}
	prios := []int{sim.PrioControl, sim.PrioDeliver, sim.PrioDrain, sim.PrioReport}
	prio := func() int { return prios[rng.Intn(len(prios))] }
	// around returns an instant at, just before or just after base+d: the
	// boundaries of the serialization window, to the picosecond.
	around := func(base sim.Time, d sim.Duration) sim.Time {
		return base.Add(d + sim.Duration(rng.Intn(3)-1))
	}

	// fan sends one size to the trio in a random leg order.
	fan := func(sz int) func() {
		order := rng.Perm(len(trio))
		return func() {
			for _, i := range order {
				send(trio[i], sz)
			}
		}
	}

	for op := 0; op < nOps; op++ {
		p := tx[rng.Intn(nPorts)]
		at := sim.Time(rng.Int63n(int64(horizon)))
		switch k := rng.Intn(12); {
		case k >= 10: // a fan-out, then another at the end of its serialization
			sz := size()
			sched.AtPrio(at, prio(), fan(sz))
			sched.AtPrio(around(at, ser(trio[0], sz)), prio(), fan(size()))
		case k < 3: // a burst
			n, sz := 1+rng.Intn(6), size()
			sched.AtPrio(at, prio(), func() {
				for i := 0; i < n; i++ {
					send(p, sz+i)
				}
			})
		case k < 6: // a frame, then another poking the end of its serialization
			sz, sz2 := size(), size()
			poke, pokePrio := around(at, ser(p, sz)), prio()
			sched.AtPrio(at, prio(), func() { send(p, sz) })
			sched.AtPrio(poke, pokePrio, func() { send(p, sz2) })
		case k < 8: // a flap inside the window of a frame, and a send after it
			sz, sz2 := size(), size()
			d := ser(p, sz)
			down, up := at.Add(d/3), at.Add(2*d/3)
			again, againPrio := around(at, d*sim.Duration(2+rng.Intn(3))/4), prio()
			sched.AtPrio(at, prio(), func() { send(p, sz); send(p, sz2) })
			sched.AtPrio(down, sim.PrioControl, func() { p.SetUp(false) })
			sched.AtPrio(up, sim.PrioControl, func() { p.SetUp(true) })
			sched.AtPrio(again, againPrio, func() { send(p, sz2) })
		case k < 9: // a flap anywhere, with sends into the dead link
			gap := sim.Duration(1 + rng.Int63n(int64(20*sim.Microsecond)))
			sz := size()
			sched.AtPrio(at, prio(), func() { p.SetUp(false) })
			sched.AtPrio(at.Add(gap/2), prio(), func() { send(p, sz) })
			sched.AtPrio(at.Add(gap), prio(), func() { p.SetUp(true) })
		default: // a device failure takes the queue with it
			sched.AtPrio(at, prio(), func() { p.PurgeQueue() })
		}
	}

	// Three phases, with sends from outside any event between them: after
	// RunUntil the firing order stands past everything at the deadline,
	// including the end of a serialization that falls exactly on it.
	for phase := sim.Time(1); phase <= 2; phase++ {
		deadline := sim.Time(horizon) * phase / 3
		sz := size()
		sched.AtPrio(deadline.Add(-ser(trio[0], sz)), sim.PrioReport, fan(sz))
		sched.RunUntil(deadline)
		fan(size())()
		for _, p := range tx {
			send(p, size())
		}
	}
	end := sched.Run()

	fmt.Fprintf(&out, "end %d rng %d sent %d\n", int64(end), sched.Rand().Int63(), nextID)
	for i, p := range tx {
		fmt.Fprintf(&out, "p%d tx=%d/%dB rx=%d/%dB drops=%d lost=%d blackholed=%d purged=%d hw=%d qdelay=%d queued=%d inflight=%d\n",
			i, p.TxFrames, p.TxBytes, p.Peer().RxFrames, p.Peer().RxBytes, p.Drops, p.Lost,
			p.Blackholed, p.Purged, p.QueueHighWaterBytes, int64(p.QueueDelay), p.QueuedBytes(), p.InFlight())
	}
	return out.Bytes()
}
