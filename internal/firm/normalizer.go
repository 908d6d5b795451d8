// Package firm implements the trading firm's application tier (§2): market
// data normalizers that convert each exchange's format to an internal
// standard and repartition it, strategies that consume normalized feeds and
// decide orders, and order gateways that translate the internal order flow
// back into each exchange's protocol.
package firm

import (
	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// NormalizedPort is the UDP port normalized market data is published on.
const NormalizedPort = 31001

// NormalizerConfig parameterizes a normalizer.
type NormalizerConfig struct {
	// ProcLatency is the software cost of decoding, normalizing, and
	// re-encoding one datagram (the <2 µs per-function budget of §4).
	ProcLatency sim.Duration
	// PartitionOwned, if set, restricts which internal partitions this
	// normalizer emits — how a fleet of normalizers divides the feed
	// without duplicating work ("normalizing the market data also avoids
	// having to perform certain common processing steps redundantly", §1).
	// Unowned messages are counted in Skipped.
	PartitionOwned func(part int) bool
}

// Normalizer converts one exchange's raw feed into the internal format and
// repartitions it onto internal multicast groups.
type Normalizer struct {
	cfg    NormalizerConfig
	sched  *sim.Scheduler
	u      *market.Universe
	host   *netsim.Host
	rawNIC *netsim.NIC
	pubNIC *netsim.NIC

	inVariant *feed.Variant
	reasm     unitTable
	outMap    *mcast.Map
	packers   []*feed.Packer
	// orderSym tracks order-id → symbol so deletes and executions (which
	// carry no symbol on the wire) can be repartitioned correctly.
	orderSym map[uint64]market.SymbolID

	ipID uint16

	// curTrace is the flight-recorder context stolen from the frame being
	// processed; the first flushed output frame adopts it, carrying the trace
	// across the normalizer hop.
	curTrace *trace.Ctx

	// OnGap, if set, fires for every sequence gap any of the raw-feed
	// reassemblers detects (after the Gaps/MsgLost counters update). The
	// gap-recovery wiring hangs its replay requests here.
	OnGap func(feed.GapInfo)

	// Stats.
	MsgsIn, MsgsOut   uint64
	Skipped           uint64 // messages for partitions this replica does not own
	GapsSeen, MsgLost uint64
}

// NewNormalizer builds a normalizer on host id hostID. rawMap describes the
// exchange's partitioning (whose groups the raw NIC joins); outMap is the
// internal partitioning it publishes into.
func NewNormalizer(sched *sim.Scheduler, u *market.Universe, name string, hostID uint32,
	inVariant *feed.Variant, rawMap, outMap *mcast.Map, cfg NormalizerConfig) *Normalizer {
	n := &Normalizer{
		cfg:       cfg,
		sched:     sched,
		u:         u,
		inVariant: inVariant,
		outMap:    outMap,
		orderSym:  make(map[uint64]market.SymbolID),
	}
	n.host = netsim.NewHost(sched, name)
	n.rawNIC = n.host.AddNIC("raw", hostID)
	n.pubNIC = n.host.AddNIC("pub", hostID+1)
	for i, g := range rawMap.Groups() {
		n.rawNIC.Join(g)
		r := feed.NewReassembler(uint8(i))
		r.OnGap = func(gi feed.GapInfo) {
			n.GapsSeen++
			n.MsgLost += uint64(gi.MsgsLost)
			if n.OnGap != nil {
				n.OnGap(gi)
			}
		}
		n.reasm.set(uint8(i), r)
	}
	for i := 0; i < outMap.Partitioner().Partitions(); i++ {
		n.packers = append(n.packers, feed.NewPacker(feed.Internal, uint8(i)))
	}
	n.rawNIC.OnFrame = n.onFrame
	return n
}

// RawNIC returns the NIC subscribed to the exchange feed.
func (n *Normalizer) RawNIC() *netsim.NIC { return n.rawNIC }

// PubNIC returns the NIC publishing the normalized feed.
func (n *Normalizer) PubNIC() *netsim.NIC { return n.pubNIC }

// OutMap returns the internal partition map.
func (n *Normalizer) OutMap() *mcast.Map { return n.outMap }

func (n *Normalizer) onFrame(_ *netsim.NIC, f *netsim.Frame) {
	// Charge the software processing cost, then normalize. The frame is
	// retained past this callback, so nothing upstream may release it;
	// process terminates it.
	n.sched.AfterArgs(n.cfg.ProcLatency, sim.PrioDeliver, processFrame, n, f)
}

// processFrame runs a deferred normalization, scheduled closure-free.
func processFrame(a, b any) {
	a.(*Normalizer).process(b.(*netsim.Frame))
}

func (n *Normalizer) process(f *netsim.Frame) {
	defer f.Release()
	// Steal the trace before any early return: whichever output frame
	// flushes first adopts it; a trace with no output (parse failure,
	// everything filtered) is closed as consumed here.
	if f.Trace != nil {
		n.curTrace, f.Trace = f.Trace, nil
	}
	defer n.closeTrace()
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
		return
	}
	var h feed.UnitHeader
	if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
		return
	}
	r := n.reasm.get(h.Unit)
	if r == nil {
		return
	}
	// One message per datagram: each normalized message goes out at once.
	r.Consume(uf.Payload, func(m *feed.Msg) {
		if part := n.normalize(m); part >= 0 {
			n.flush(part, f.Origin)
		}
	})
}

// normalize packs one message into its partition's empty packer and
// returns the partition (-1 if unowned); the caller flushes it.
func (n *Normalizer) normalize(m *feed.Msg) int {
	n.MsgsIn++
	sym := n.resolveSymbol(m)
	part := n.outMap.Partitioner().Partition(sym)
	if n.cfg.PartitionOwned != nil && !n.cfg.PartitionOwned(part) {
		n.Skipped++
		return -1
	}
	n.packers[part].Add(m)
	n.MsgsOut++
	return part
}

// ConsumeRecovered normalizes a message replayed by the gap-recovery
// service. It takes the same partition path as live traffic. The packer
// re-sequences it onto the internal feed, so downstream consumers see a
// gap-free stream (late, not lost): the normalizer absorbs the
// exchange-side gap instead of propagating it.
func (n *Normalizer) ConsumeRecovered(m *feed.Msg) {
	if part := n.normalize(m); part >= 0 {
		n.flush(part, n.sched.Now())
	}
}

// resolveSymbol maps a message to its instrument, learning order-id
// associations from adds.
func (n *Normalizer) resolveSymbol(m *feed.Msg) market.SymbolID {
	switch m.Type {
	case feed.MsgAddOrder, feed.MsgTrade:
		if id, ok := n.u.LookupWire(m.Symbol); ok {
			n.orderSym[m.OrderID] = id
			return id
		}
		return 1
	default:
		if id, ok := n.orderSym[m.OrderID]; ok {
			if m.Type == feed.MsgDeleteOrder {
				delete(n.orderSym, m.OrderID)
			}
			return id
		}
		return 1
	}
}

func (n *Normalizer) flush(part int, origin sim.Time) {
	group := n.outMap.GroupByIndex(part)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(group), IP: group, Port: NormalizedPort}
	src := n.pubNIC.Addr(NormalizedPort)
	n.packers[part].Flush(func(dgram []byte) {
		n.ipID++
		// Build straight into a pooled frame. Preserve the original ingress
		// timestamp so end-to-end latency (exchange → strategy) is
		// measurable across the normalizer.
		fr := netsim.NewFrame()
		fr.Data = pkt.AppendUDPFrame(fr.Data, src, dst, n.ipID, dgram)
		fr.Origin = origin
		if t := n.curTrace; t != nil {
			// The whole normalizer residency — host receive path, proc
			// latency, reassembly — is one software span ending now.
			t.Record(n.host.Name, trace.CauseSoftware, n.sched.Now())
			fr.Trace = t
			n.curTrace = nil
		}
		n.pubNIC.Send(fr)
	})
}

// closeTrace finishes a stolen trace no output frame adopted.
func (n *Normalizer) closeTrace() {
	if t := n.curTrace; t != nil {
		t.Record(n.host.Name, trace.CauseSoftware, n.sched.Now())
		t.Finish(trace.EndConsumed)
		n.curTrace = nil
	}
}
