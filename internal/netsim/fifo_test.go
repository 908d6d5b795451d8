package netsim

import (
	"math/rand"
	"testing"
	"unsafe"

	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// TestFifoMatchesSliceReference pushes and pops in random runs that fill
// the fifo many chunks deep and empty it again, comparing every pop and
// every length with a plain slice.
func TestFifoMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var q fifo[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Phases of 500 steps lean towards pushes or towards pops, so the
		// depth wanders between empty and several hundred entries.
		pushBias := 3 + 4*((step/500)%2)
		if len(ref) == 0 || rng.Intn(10) < pushBias {
			q.push(next)
			ref = append(ref, next)
			next++
		} else {
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: pop = %d, reference %d", step, got, want)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, reference %d", step, q.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got := q.pop(); got != ref[0] {
			t.Fatalf("final drain: pop = %d, reference %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if next < 10*chunkLen {
		t.Fatalf("only %d pushes: the run crossed too few chunk boundaries", next)
	}
}

// A link failure must empty both fifos when each spans several chunks:
// SetUp(false) loses every frame on the wire, PurgeQueue every queued one,
// and after recovery the port delivers new frames in order.
func TestLinkDownAndPurgeAcrossChunks(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, rx := twoPorts(sched, units.Rate10G, 50*sim.Microsecond)
	const n = 6 * chunkLen
	var frames []*Frame
	for i := 0; i < n; i++ {
		f := NewFrame()
		f.Data = append(f.Data, payload(200)...)
		f.ID = uint64(i)
		a.Send(f)
		frames = append(frames, f)
	}
	var lost, queued int
	sched.At(sim.Time(8*sim.Microsecond), func() {
		lost, queued = a.InFlight(), a.QueuedBytes()/200
		if lost <= 2*chunkLen || queued <= 2*chunkLen {
			t.Fatalf("%d frames in flight and %d queued: want both over two chunks", lost, queued)
		}
		a.SetUp(false)
		if a.InFlight() != 0 {
			t.Fatalf("%d frames still in flight after link down", a.InFlight())
		}
		if purged := a.PurgeQueue(); purged != queued || a.QueuedBytes() != 0 {
			t.Fatalf("purged %d frames, %d bytes left; want %d and 0", purged, a.QueuedBytes(), queued)
		}
	})
	sched.Run()
	if len(rx.frames) != 0 {
		t.Fatalf("%d frames delivered across a dead link", len(rx.frames))
	}
	if a.Lost != uint64(lost) || a.TxFrames != uint64(lost) || a.Purged != uint64(queued) || lost+queued != n {
		t.Fatalf("lost %d, purged %d, sent %d of %d frames", a.Lost, a.Purged, a.TxFrames, n)
	}
	for i, f := range frames {
		if !f.released {
			t.Fatalf("frame %d leaked", i)
		}
	}

	a.SetUp(true)
	for i := 0; i < n; i++ {
		a.Send(&Frame{Data: payload(200), ID: uint64(n + i)})
	}
	sched.Run()
	if len(rx.frames) != n {
		t.Fatalf("%d frames delivered after recovery, want %d", len(rx.frames), n)
	}
	for i, f := range rx.frames {
		if f.ID != uint64(n+i) {
			t.Fatalf("delivery %d carries frame %d, want %d", i, f.ID, n+i)
		}
	}
}

// A warmed port cycling bursts deep enough to span several chunks of both
// its egress queue and its in-flight fifo allocates nothing.
func TestWarmPortDoesNotAllocate(t *testing.T) {
	sched := sim.NewScheduler(1)
	a := NewPort(sched, nil, "a")
	b := NewPort(sched, HandlerFunc(func(_ *Port, f *Frame) { f.Release() }), "b")
	Connect(a, b, units.Rate10G, 20*sim.Microsecond)
	burst := make([]*Frame, 3*chunkLen)
	for i := range burst {
		burst[i] = &Frame{Data: payload(200)}
	}
	deepest := 0
	probe := func() { deepest = a.InFlight() }
	cycle := func() {
		for _, f := range burst {
			a.Send(f)
		}
		sched.At(sched.Now().Add(7*sim.Microsecond), probe)
		sched.Run()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if deepest <= 2*chunkLen {
		t.Fatalf("%d frames in flight at the deepest point: the burst does not span chunks", deepest)
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("%.2f allocations per burst on a warmed port, want 0", avg)
	}
}

// Switches hold dozens of ports each; a test keeps the struct from creeping
// into a larger size class.
func TestPortSize(t *testing.T) {
	if size := unsafe.Sizeof(Port{}); size > 336 {
		t.Fatalf("Port is %d bytes, want at most 336", size)
	}
}
