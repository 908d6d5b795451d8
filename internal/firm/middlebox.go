package firm

import (
	"tradenet/internal/feed"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// Middlebox is the §3 "Implications" filtering appliance: a host that
// subscribes to feed groups, discards messages its clients don't want, and
// republishes the survivors on a dedicated group. Compared with filtering
// inside each trading process, a middlebox spends its discard CPU once for
// all downstream consumers: "when several systems employ the same
// partitioning scheme, middleboxes can be more efficient in terms of the
// number of cores used".
type Middlebox struct {
	sched *sim.Scheduler
	host  *netsim.Host
	inNIC *netsim.NIC
	out   *netsim.NIC

	// Keep decides which messages survive.
	Keep func(m *feed.Msg) bool
	// PerMsgCost is the CPU time spent examining one message (spent whether
	// or not the message survives — discarding costs too, which is the
	// crux of the placement decision).
	PerMsgCost sim.Duration

	outGroup pkt.IP4
	packer   *feed.Packer
	reasm    unitTable
	ipID     uint16
	busy     sim.Time
	// flushQ holds the origins of flushes scheduled but not yet fired, in
	// schedule order. busy is monotonically non-decreasing, so the scheduler
	// fires the flush events in exactly this order — a FIFO queue lets the
	// closure-free callback recover each flush's origin without boxing a
	// sim.Time (a non-pointer) into any, which would allocate per event.
	flushQ []sim.Time

	// Stats.
	Examined  uint64
	Passed    uint64
	Discarded uint64
	// CPUTime is total processing time consumed — the "cores used" metric.
	CPUTime sim.Duration
}

// NewMiddlebox builds a filtering appliance. It joins every group of inMap
// on its ingress NIC and republishes survivors on outGroup (unit 0).
func NewMiddlebox(sched *sim.Scheduler, name string, hostID uint32,
	inGroups []pkt.IP4, outGroup pkt.IP4, keep func(*feed.Msg) bool, perMsg sim.Duration) *Middlebox {
	mb := &Middlebox{
		sched:      sched,
		Keep:       keep,
		PerMsgCost: perMsg,
		outGroup:   outGroup,
		packer:     feed.NewPacker(feed.Internal, 0),
	}
	mb.host = netsim.NewHost(sched, name)
	mb.inNIC = mb.host.AddNIC("in", hostID)
	mb.out = mb.host.AddNIC("out", hostID+1)
	for _, g := range inGroups {
		mb.inNIC.Join(g)
	}
	mb.inNIC.OnFrame = mb.onFrame
	return mb
}

// InNIC returns the subscribing NIC.
func (mb *Middlebox) InNIC() *netsim.NIC { return mb.inNIC }

// OutNIC returns the republishing NIC.
func (mb *Middlebox) OutNIC() *netsim.NIC { return mb.out }

// OutGroup returns the filtered feed's group.
func (mb *Middlebox) OutGroup() pkt.IP4 { return mb.outGroup }

func (mb *Middlebox) onFrame(_ *netsim.NIC, f *netsim.Frame) {
	// Messages are re-encoded into the packer before this returns; the
	// frame terminates here.
	defer f.Release()
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
		return
	}
	var h feed.UnitHeader
	if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
		return
	}
	r := mb.reasm.get(h.Unit)
	if r == nil {
		r = feed.NewReassembler(h.Unit)
		mb.reasm.set(h.Unit, r)
	}
	// A single core serves the box: work queues behind earlier work.
	now := mb.sched.Now()
	if mb.busy < now {
		mb.busy = now
	}
	origin := f.Origin
	var kept int
	r.Consume(uf.Payload, func(m *feed.Msg) {
		mb.Examined++
		mb.busy = mb.busy.Add(mb.PerMsgCost)
		mb.CPUTime += mb.PerMsgCost
		if mb.Keep != nil && !mb.Keep(m) {
			mb.Discarded++
			return
		}
		mb.Passed++
		kept++
		if !mb.packer.Add(m) {
			// Output datagram full: emit it now and start another.
			mb.flush(origin)
			mb.packer.Add(m)
		}
	})
	if kept == 0 {
		return
	}
	mb.flushQ = append(mb.flushQ, origin)
	mb.sched.AtArgs(mb.busy, sim.PrioDeliver, flushHeadArgs, mb, nil)
}

// flushHeadArgs adapts the queued flush to the Scheduler's closure-free
// two-argument callback shape.
func flushHeadArgs(a, _ any) {
	mb := a.(*Middlebox)
	origin := mb.flushQ[0]
	if len(mb.flushQ) == 1 {
		mb.flushQ = mb.flushQ[:0] // reuse the backing array once drained
	} else {
		mb.flushQ = mb.flushQ[1:]
	}
	mb.flush(origin)
}

func (mb *Middlebox) flush(origin sim.Time) {
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(mb.outGroup), IP: mb.outGroup, Port: NormalizedPort}
	src := mb.out.Addr(NormalizedPort)
	mb.packer.Flush(func(dgram []byte) {
		mb.ipID++
		fr := netsim.NewFrame()
		fr.Data = pkt.AppendUDPFrame(fr.Data, src, dst, mb.ipID, dgram)
		fr.Origin = origin
		mb.out.Send(fr)
	})
}

// FilterPlacement captures the §3 arithmetic for where to filter: given a
// feed of `rate` messages/s of which fraction `want` is useful, a consumer
// that filters in-process spends discardCost on every unwanted message plus
// processCost on wanted ones; with an upstream filter it spends only
// processCost on wanted ones, while the middlebox spends discardCost once
// for all `consumers`.
type FilterPlacement struct {
	Rate        float64 // messages/s on the raw feed
	Want        float64 // fraction useful to each consumer
	Consumers   int
	DiscardCost sim.Duration // per-message cost to inspect-and-drop
	ProcessCost sim.Duration // per-message cost to actually process
}

// InProcessCoresUsed returns the total CPU cores consumed when every
// consumer filters for itself.
func (fp FilterPlacement) InProcessCoresUsed() float64 {
	perConsumer := fp.Rate * ((1-fp.Want)*fp.DiscardCost.Seconds() + fp.Want*fp.ProcessCost.Seconds())
	return perConsumer * float64(fp.Consumers)
}

// MiddleboxCoresUsed returns the total CPU cores consumed with one upstream
// filter: the box inspects everything once, consumers process only wanted
// traffic.
func (fp FilterPlacement) MiddleboxCoresUsed() float64 {
	box := fp.Rate * fp.DiscardCost.Seconds()
	consumers := fp.Rate * fp.Want * fp.ProcessCost.Seconds() * float64(fp.Consumers)
	return box + consumers
}

// MiddleboxWins reports whether the middlebox placement uses fewer cores —
// the paper's rule of thumb: it wins once several systems share the same
// partitioning scheme.
func (fp FilterPlacement) MiddleboxWins() bool {
	return fp.MiddleboxCoresUsed() < fp.InProcessCoresUsed()
}
