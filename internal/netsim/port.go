// Package netsim models the physical network: ports, links, output queues,
// NICs, hosts, and taps. A frame is a real byte slice (built by pkt);
// transit charges serialization delay (frame bytes at line rate, plus
// preamble and inter-frame gap), propagation delay (set by the link's
// length and medium), and queueing delay (FIFO output queues with a finite
// byte capacity; overflow drops the frame, as switches do).
package netsim

import (
	"strconv"

	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
	"tradenet/internal/units"
)

// FrameOverheadBytes is the per-frame wire overhead beyond the frame bytes:
// 8 bytes of preamble/SFD plus a 12-byte minimum inter-frame gap.
const FrameOverheadBytes = 20

// Frame is a frame in flight. Data is the on-wire bytes excluding FCS;
// Origin is the instant the originating application handed it to its NIC,
// carried along so receivers can measure one-way latency the way the
// paper's timestamping discussion describes (order-out minus md-in).
//
// Data, Origin and ID are written only while the frame is being built: once
// the frame is first sent it is immutable, because replication points hand
// the same *Frame to every receiver (see Clone, and DESIGN.md "Frame
// ownership and immutability"). simlint's framemut analyzer enforces the
// rule. Only Trace is per-holder state, and it is non-nil only on a frame
// that is not shared.
//
// The struct is one cache line.
type Frame struct {
	Data   []byte
	Origin sim.Time
	ID     uint64

	// Trace is the flight-recorder context riding on this frame, or nil for
	// untraced frames (the common case — every hook below is then a single
	// nil compare). Ownership follows the frame: whoever terminates the frame
	// finishes or hands off the trace; Release closes leftovers.
	Trace *trace.Ctx

	// root is the pooled frame whose buffer backs Data: the frame itself when
	// it came from NewFrame, the original when it is a clone header, nil when
	// the garbage collector owns the bytes (hand-built frames and their
	// headers).
	root *Frame
	// refs counts the holds on root: the one NewFrame hands out, one per
	// Clone that returned the root itself, one per live header. Meaningful
	// on roots only. It is a plain integer: a frame and everything cloned
	// from it stay inside one simulation, and a simulation runs on one
	// goroutine.
	refs int32

	pooled   bool // came from framePool or clonePool; Release returns it
	released bool // nobody holds it: the double-release and use-after-release guard
}

// isHeader reports whether f came from clonePool: a traced leg's own header
// over bytes some other frame (or the garbage collector) owns.
func (f *Frame) isHeader() bool { return f.pooled && f.root != f }

// Clone adds a holder to the frame and returns the frame that holder owns.
// An untraced original has no per-holder state, so the new holder shares it:
// Clone counts one more hold and returns f itself (a hand-built f has
// nothing to count — the garbage collector owns it). No pool is touched,
// and every receiver of a fan-out reads the one warm header. Calling it on a
// pooled frame whose last hold was released is a use after release and
// panics.
//
// A leg of a traced frame needs a trace.Ctx of its own, so when f.Trace is
// set — or f is itself such a leg's header — Clone returns a header from
// clonePool instead: Data aliases f.Data with its capacity clamped to its
// length, the header holds one reference on the buffer's owner, and Trace is
// a fork of f's (nil once the recorder is at capacity — replication is where
// trace counts could otherwise explode). Neither form copies a byte.
//
//simlint:allow sharedstate: clonePool is a sync.Pool — concurrency-safe by contract, and a recycled header carries no observable state between runs
func (f *Frame) Clone() *Frame {
	if f.released {
		panic("netsim: Clone of a released frame")
	}
	if f.Trace == nil && !f.isHeader() {
		if f.pooled {
			f.refs++
		}
		return f
	}
	c := clonePool.Get().(*Frame)
	n := len(f.Data)
	c.Data = f.Data[:n:n]
	c.Origin = f.Origin
	c.ID = f.ID
	if r := f.root; r != nil {
		r.refs++
		c.root = r
	}
	c.released = false
	if f.Trace != nil {
		c.Trace = trace.ForkOf(f.Trace)
	}
	return c
}

// Handler is anything that terminates frames: a switch, a host NIC stack,
// an exchange port.
type Handler interface {
	// HandleFrame is invoked when a frame fully arrives at ingress.
	HandleFrame(ingress *Port, f *Frame)
}

// HandlerFunc adapts an ordinary function to a Handler, as http.HandlerFunc
// does for http.Handler: a sink whose only job is a callback needs no type.
type HandlerFunc func(ingress *Port, f *Frame)

// HandleFrame calls h(ingress, f).
func (h HandlerFunc) HandleFrame(ingress *Port, f *Frame) { h(ingress, f) }

// queued is one egress-queue entry: the frame and its enqueue instant.
type queued struct {
	f   *Frame
	enq sim.Time
}

// flight is one frame committed to the wire: its delivery event and the
// frame itself, so a link failure can cancel the arrival and reclaim the
// buffer. Deliveries complete FIFO (a later frame's start is this frame's
// serialization end, and per-frame delay is serialization + a constant
// propagation), so the head of the in-flight fifo is always the next arrival.
type flight struct {
	ev *sim.Event
	f  *Frame
}

// Port is one end of a full-duplex link, with an egress FIFO queue.
type Port struct {
	Name  string
	Owner Handler
	// Index is the port's position among its owner's ports as NewPorts
	// numbered them (0 for a NewPort port), so a device indexes per-port
	// state by ingress without searching for it.
	Index int

	peer *Port
	rate units.Bandwidth
	prop sim.Duration

	sched *sim.Scheduler

	// queue is the egress FIFO. Like fly, it grows by linking a chunk and
	// keeps the chunks it empties, so steady-state enqueue/dequeue moves no
	// memory and allocates nothing.
	queue      fifo[queued]
	queuedByte int
	capBytes   int
	// draining means a drain event for this port is pending in the
	// scheduler. It does not mean the line is busy: a transmit that leaves
	// the queue empty schedules nothing and parks the end of its
	// serialization in lineFree instead.
	draining bool
	// reserved marks lineFree as live: the line is (or was) serializing the
	// last frame of a burst, and lineFree is where the drain that ends that
	// serialization would have stood in the firing order. A Send or
	// SetUp(true) that arrives before the order passes it schedules the drain
	// there, so the next frame starts exactly when the line frees up.
	reserved bool
	lineFree sim.Reservation

	// down marks the transmit side of the link failed (fault injection).
	// The zero value is up, so slab-allocated ports start healthy.
	down bool

	// fly holds the frames committed to the wire, in transmit order; a link
	// failure cancels and reclaims every entry.
	fly fifo[flight]

	// Tap, if set, observes every frame this port transmits, at the instant
	// serialization starts — where a capture appliance's optical tap sits.
	Tap func(f *Frame, at sim.Time)

	// CutThrough marks a switch egress port: the frame's bits are already
	// streaming (the source NIC serialized them once), so delivery is
	// charged only propagation, while the line stays occupied for the full
	// serialization time. Host NICs leave this false and charge
	// serialization — once per path, matching cut-through fabric physics
	// and the paper's per-hop arithmetic (12 hops × 500 ns + one
	// serialization).
	CutThrough bool

	// LossProb is the probability a transmitted frame is lost in flight —
	// the medium's intrinsic error rate. Losses are drawn from the
	// scheduler's deterministic RNG.
	LossProb float64

	// lossOverlays are named transient loss sources layered over LossProb
	// — rain fade on a microwave circuit (§2), a scripted burst, a dirty
	// connector. The effective per-frame loss probability is the max of
	// LossProb and every active overlay, so overlapping windows compose
	// instead of clobbering each other's capture-and-restore value.
	lossOverlays []lossOverlay

	// Stats.
	TxFrames, RxFrames  uint64
	TxBytes, RxBytes    uint64
	Drops               uint64
	Lost                uint64 // in-flight losses: LossProb draws and link-down cuts
	Blackholed          uint64 // sends attempted while the link was down
	Purged              uint64 // queued frames flushed by PurgeQueue (device failure)
	QueueHighWaterBytes int
	QueueDelay          sim.Duration // cumulative queueing delay (sum)
}

// DefaultQueueBytes is the default egress buffer: 512 KiB, a typical
// shallow-buffer ASIC share per port.
const DefaultQueueBytes = 512 * 1024

// NewPort creates an unconnected port owned by owner.
func NewPort(sched *sim.Scheduler, owner Handler, name string) *Port {
	return &Port{Name: name, Owner: owner, sched: sched, capBytes: DefaultQueueBytes}
}

// NewPorts creates n unconnected ports owned by owner, named
// baseName/p0..p(n-1). The ports share one backing array — switches create
// dozens at once, and a single slab is far cheaper for the allocator and
// the garbage collector than n separate objects.
func NewPorts(sched *sim.Scheduler, owner Handler, baseName string, n int) []*Port {
	slab := make([]Port, n)
	out := make([]*Port, n)
	for i := range slab {
		p := &slab[i]
		p.Name = baseName + "/p" + strconv.Itoa(i)
		p.Owner = owner
		p.Index = i
		p.sched = sched
		p.capBytes = DefaultQueueBytes
		out[i] = p
	}
	return out
}

// SetQueueCapacity overrides the egress buffer size in bytes.
func (p *Port) SetQueueCapacity(bytes int) { p.capBytes = bytes }

// lossOverlay is one named transient loss source.
type lossOverlay struct {
	name string
	prob float64
}

// SetLossSource installs or updates the named transient loss source on
// this port; prob 0 removes it. Each fault mechanism owns a distinct name
// ("rain", "burst#3", ...) and tears down only its own contribution, so
// overlapping loss windows restore correctly: the effective probability is
// always the max over LossProb and the active overlays, never a stale
// captured value. Overlays live in a small slice in insertion order —
// deterministic, and the empty case costs the hot path one length check.
func (p *Port) SetLossSource(name string, prob float64) {
	for i := range p.lossOverlays {
		if p.lossOverlays[i].name == name {
			if prob == 0 {
				p.lossOverlays = append(p.lossOverlays[:i], p.lossOverlays[i+1:]...)
			} else {
				p.lossOverlays[i].prob = prob
			}
			return
		}
	}
	if prob != 0 {
		p.lossOverlays = append(p.lossOverlays, lossOverlay{name: name, prob: prob})
	}
}

// EffectiveLossProb is the per-frame loss probability the next transmit
// will draw against: the max of LossProb and every active overlay.
func (p *Port) EffectiveLossProb() float64 {
	loss := p.LossProb
	for i := range p.lossOverlays {
		if p.lossOverlays[i].prob > loss {
			loss = p.lossOverlays[i].prob
		}
	}
	return loss
}

// Connect joins a and b with a full-duplex link of the given rate and
// one-way propagation delay.
func Connect(a, b *Port, rate units.Bandwidth, prop sim.Duration) {
	if a.peer != nil || b.peer != nil {
		panic("netsim: port already connected")
	}
	a.peer, b.peer = b, a
	a.rate, b.rate = rate, rate
	a.prop, b.prop = prop, prop
}

// Peer returns the port at the other end of the link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Rate returns the link rate.
func (p *Port) Rate() units.Bandwidth { return p.rate }

// Connected reports whether the port has a link.
func (p *Port) Connected() bool { return p.peer != nil }

// QueuedBytes returns the bytes currently waiting in the egress queue.
func (p *Port) QueuedBytes() int { return p.queuedByte }

// Up reports whether the port's transmit side is up.
func (p *Port) Up() bool { return !p.down }

// InFlight returns the number of frames committed to the wire and not yet
// delivered.
func (p *Port) InFlight() int { return p.fly.len() }

// SetUp changes the transmit-side link state — the fault-injection entry
// point (a whole-link failure downs both ends; fault.Plan does that).
//
// Going down: every frame already committed to the wire is lost (counted in
// Lost) and its buffer reclaimed; queued frames stay queued and the drain
// pauses. Sends while down are counted in Blackholed and discarded — the
// transmitter keeps handing frames to a dead medium until something tells
// it otherwise. Coming up: the drain resumes where it paused.
func (p *Port) SetUp(up bool) {
	if up == !p.down {
		return
	}
	if !up {
		p.down = true
		for p.fly.len() > 0 {
			ent := p.fly.pop()
			ent.ev.Cancel()
			p.Lost++
			if t := ent.f.Trace; t != nil {
				// The in-flight span was already recorded up to the would-be
				// delivery; the cut truncates nothing retroactively.
				t.Finish(trace.EndLost)
				ent.f.Trace = nil
			}
			ent.f.Release()
		}
		return
	}
	p.down = false
	if p.queue.len() > 0 && !p.draining {
		p.startDrain()
	}
}

// PurgeQueue discards every frame waiting in the egress queue — a device
// failure takes its packet memory with it. Purged frames are counted in
// Purged and their buffers reclaimed; frames already on the wire are not
// affected (SetUp(false) handles those).
func (p *Port) PurgeQueue() int {
	n := p.queue.len()
	for p.queue.len() > 0 {
		ent := p.queue.pop()
		p.Purged++
		if t := ent.f.Trace; t != nil {
			t.Record(p.Name, trace.CauseQueueing, p.sched.Now())
			t.Finish(trace.EndPurged)
			ent.f.Trace = nil
		}
		ent.f.Release()
	}
	p.queuedByte = 0
	return n
}

// Send enqueues f for transmission. It reports false (and counts a drop)
// when the egress buffer cannot hold the frame — tail-drop, as in shallow
// switch buffers. The port takes ownership of the frame in both cases; a
// dropped pooled frame is released here.
func (p *Port) Send(f *Frame) bool {
	if p.peer == nil {
		panic("netsim: send on unconnected port " + p.Name)
	}
	if p.down {
		p.Blackholed++
		if t := f.Trace; t != nil {
			t.Finish(trace.EndBlackholed)
			f.Trace = nil
		}
		f.Release()
		return false
	}
	if p.queuedByte+len(f.Data) > p.capBytes {
		p.Drops++
		if t := f.Trace; t != nil {
			t.Finish(trace.EndDropped)
			f.Trace = nil
		}
		f.Release()
		return false
	}
	p.queue.push(queued{f, p.sched.Now()})
	p.queuedByte += len(f.Data)
	if p.queuedByte > p.QueueHighWaterBytes {
		p.QueueHighWaterBytes = p.queuedByte
	}
	if !p.draining {
		p.startDrain()
	}
	return true
}

// startDrain schedules the drain event for a port that has none pending: at
// the end of the last frame's serialization if the firing order has not yet
// passed it (the line is still busy), otherwise now.
func (p *Port) startDrain() {
	p.draining = true
	if p.reserved {
		p.reserved = false
		if !p.sched.Passed(p.lineFree) {
			p.sched.AtReserved(p.lineFree, drainPort, p, nil)
			return
		}
	}
	p.sched.AtArgs(p.sched.Now(), sim.PrioDrain, drainPort, p, nil)
}

// lineBusyUntil ends a transmit: the next frame may start once this one's
// bits have left, at t. With frames waiting, that is the next drain event.
// With none, no event is scheduled — the drain would find nothing to send —
// and its place in the firing order is reserved for startDrain.
func (p *Port) lineBusyUntil(t sim.Time) {
	if p.queue.len() > 0 {
		p.sched.AtArgs(t, sim.PrioDrain, drainPort, p, nil)
		return
	}
	p.draining = false
	p.reserved = true
	p.lineFree = p.sched.Reserve(t, sim.PrioDrain)
}

// deliverFrame is the arrival callback, scheduled closure-free via AtArgs.
// Deliveries are FIFO per link, so the arriving frame is the sender's
// oldest in-flight entry; the pop keeps the in-flight fifo in lockstep.
func deliverFrame(a, b any) {
	peer := a.(*Port)
	f := b.(*Frame)
	sender := peer.peer
	if ent := sender.fly.pop(); ent.f != f {
		panic("netsim: in-flight ordering violated on " + sender.Name)
	}
	peer.RxFrames++
	peer.RxBytes += uint64(len(f.Data))
	peer.Owner.HandleFrame(peer, f)
}

// drainPort is the drain callback, scheduled closure-free via AtArgs (a
// cached method value would cost one closure allocation per port).
func drainPort(a, _ any) { a.(*Port).drain() }

// drain transmits the head-of-line frame and reschedules itself while
// frames are waiting. One invocation per frame: the scheduler's clock
// provides the serialization spacing.
func (p *Port) drain() {
	if p.queue.len() == 0 || p.down {
		// Purged while the drain was pending, or the link failed with frames
		// still queued: pause. SetUp restarts the drain on recovery.
		p.draining = false
		return
	}
	ent := p.queue.pop()
	f := ent.f
	p.queuedByte -= len(f.Data)

	now := p.sched.Now()
	p.QueueDelay += now.Sub(ent.enq)
	if p.Tap != nil {
		p.Tap(f, now)
	}
	wire := pkt.WireSize(len(f.Data)) + FrameOverheadBytes
	ser := units.SerializationDelay(wire, p.rate)
	p.TxFrames++
	p.TxBytes += uint64(len(f.Data))
	if t := f.Trace; t != nil {
		// Queueing covers the wait since enqueue (the handoff cursor).
		t.Record(p.Name, trace.CauseQueueing, now)
	}

	loss := p.LossProb
	if len(p.lossOverlays) != 0 {
		loss = p.EffectiveLossProb()
	}
	if loss > 0 && p.sched.Rand().Float64() < loss {
		// The frame leaves the port but never arrives.
		p.Lost++
		if t := f.Trace; t != nil {
			t.Record(p.Name, trace.CauseSerialization, now.Add(ser))
			t.Finish(trace.EndLost)
			f.Trace = nil
		}
		f.Release()
		p.lineBusyUntil(now.Add(ser))
		return
	}

	delay := ser + p.prop
	if p.CutThrough {
		delay = p.prop
	}
	if t := f.Trace; t != nil {
		// Spans end exactly at the delivery instant, so the cursor lands on
		// the receiver's clock with no gap (the telescoping invariant).
		if !p.CutThrough {
			t.Record(p.Name, trace.CauseSerialization, now.Add(ser))
		}
		t.Record(p.Name, trace.CausePropagation, now.Add(delay))
	}
	ev := p.sched.AtArgs(now.Add(delay), sim.PrioDeliver, deliverFrame, p.peer, f)
	p.fly.push(flight{ev, f})
	p.lineBusyUntil(now.Add(ser))
}
