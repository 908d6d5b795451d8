package core

import (
	"tradenet/internal/colo"
	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/redundancy"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Adaptive WAN redundancy (§2): the exchange's published feed, mirrored to a
// remote site over the Carteret→Secaucus microwave circuit — the path firms
// run *because* it is fast, accepting that it rain-fades. The mirror is built
// from the internal/redundancy policy layer:
//
//	exchange tap ─► redundancy.Sender ─► microwave ─► redundancy.Receiver
//	                                                   │ per-unit Reassemblers
//	                                                   └ gaps ─► TCP replay over
//	                                                             a fiber side channel
//
// A closed-loop controller samples the circuit's transmit/loss counters plus
// the feed side's residual declared losses every window of virtual time and
// walks the policy ladder ReplayOnly → ParityFEC → Duplicate with
// deterministic hysteresis. Everything — tick instants, loss draws, policy
// decisions — is a pure function of the scenario seed.
//
// The mirror is a passive observer of the plant: it taps datagrams the
// exchange publishes anyway and feeds nothing back into the round-trip path,
// so arming it cannot perturb tick-to-trade measurements. With the Scenario
// knob off none of this is built and the publish path pays one nil compare.

// wanfeed side-channel host IDs (disjoint from the plant's 100/1000/10000/
// 50000 ranges) and stream ports.
const (
	idWANPub = 90
	idWANSub = 91

	wanPubPort = 5100
	wanSubPort = 5101

	// wanSideChanLatency is the metro-fiber one-way latency of the replay
	// side channel — the round trip every replay pays and proactive
	// redundancy avoids (E19's side-channel figure).
	wanSideChanLatency = 80 * sim.Microsecond
)

// WANFeed is the armed mirror: one instance per design plant when
// Scenario.WANRedundancy is set.
type WANFeed struct {
	MW *colo.Circuit // the mirrored live path (microwave)

	Sender     *redundancy.Sender
	Receiver   *redundancy.Receiver
	Controller *redundancy.Controller

	// FeedMsgs counts messages delivered in order at the remote site off the
	// live path — first copies, deduped duplicates, and parity
	// reconstructions, but not replayed data (that arrives late and out of
	// band). GapDgrams and LostMsgs are the residual gaps that fell through
	// to replay; Requests counts the replay requests they triggered.
	FeedMsgs  uint64
	GapDgrams uint64
	LostMsgs  uint64
	Requests  uint64
	// Unrecoverable counts replay refusals (range rolled out of retention).
	Unrecoverable uint64
	// PendingReplays is the gauge of replay requests still in flight —
	// requests sent minus RecoveryDone terminators read back. While nonzero
	// the remote site *knows* it is missing data: the probe-visible half of
	// the stale-picture window (losses not yet detected are the blind half).
	PendingReplays int

	srv       *feed.RecoveryServer
	recReader *feed.ResponseReader
	reasm     []*feed.Reassembler
	cliStream *netsim.Stream

	sched *sim.Scheduler
	src   pkt.UDPAddr
	dst   pkt.UDPAddr
	ipID  uint16
}

// receive terminates the mirror's microwave circuit at the remote site: it
// unwraps one wire frame and feeds it to the redundancy receiver.
func (wf *WANFeed) receive(_ *netsim.Port, f *netsim.Frame) {
	var uf pkt.UDPFrame
	if pkt.ParseUDPFrame(f.Data, &uf) == nil {
		wf.Receiver.Consume(uf.Payload)
	}
	f.Release()
}

// NewWANFeed arms the mirror on ex's publish path with the redundancy
// layer's defaults: parity groups of 4, a 256-slot reorder ring, 500 µs
// controller windows, same-path duplication. The controller is built but
// not ticking: call Start for the adaptive closed loop, or ForceStatic
// to pin a policy. Until either, the mirror runs ReplayOnly — the status
// quo — so a plant built with the knob on but never steered still
// terminates its event loop (no self-rearming ticks).
func NewWANFeed(sched *sim.Scheduler, ex *exchange.Exchange) *WANFeed {
	wf := &WANFeed{sched: sched}
	wf.MW = colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultMicrowave(), discard, netsim.HandlerFunc(wf.receive))

	wf.Sender = redundancy.NewSender(sched, redundancy.DefaultSenderConfig())
	wf.Sender.Emit = wf.emit
	wf.Receiver = redundancy.NewReceiver(redundancy.DefaultReceiverConfig())
	wf.Receiver.Deliver = wf.deliver

	// Remote feed state: one reassembler per feed unit; gaps fall through to
	// the replay client on the fiber side channel.
	parts := ex.PartitionMap().Partitioner().Partitions()
	wf.reasm = make([]*feed.Reassembler, parts)
	for i := range wf.reasm {
		r := feed.NewReassembler(uint8(i))
		r.OnGap = wf.onGap
		wf.reasm[i] = r
	}

	// Replay side channel: metro fiber, dedicated hosts, one shared stream.
	// Responses carry unit headers, so one reader serves all units; the
	// server side gets a fresh per-stream framing state over the exchange's
	// retain buffers.
	wf.srv = ex.NewRecoveryServer()
	pubNIC := netsim.NewHost(sched, "wanfeed-pub").AddNIC("rec", idWANPub)
	subNIC := netsim.NewHost(sched, "wanfeed-sub").AddNIC("rec", idWANSub)
	netsim.Connect(pubNIC.Port, subNIC.Port, units.Rate10G, wanSideChanLatency)
	pubMux := netsim.NewStreamMux(pubNIC)
	subMux := netsim.NewStreamMux(subNIC)
	srvStream := netsim.NewStream(pubNIC, wanPubPort, subNIC.Addr(wanSubPort))
	wf.cliStream = netsim.NewStream(subNIC, wanSubPort, pubNIC.Addr(wanPubPort))
	pubMux.Register(srvStream)
	subMux.Register(wf.cliStream)
	srvStream.OnData = func(b []byte) {
		wf.srv.Receive(b, func(resp []byte) { srvStream.Write(resp) })
	}
	wf.recReader = &feed.ResponseReader{}
	wf.recReader.OnRefused = func(uint8) { wf.Unrecoverable++ }
	wf.recReader.OnDone = func() {
		if wf.PendingReplays > 0 {
			wf.PendingReplays--
		}
	}
	wf.cliStream.OnData = func(b []byte) {
		_ = wf.recReader.Read(b, nil)
	}

	wf.Controller = redundancy.NewController(sched, redundancy.DefaultControllerConfig(),
		redundancy.SumSource{
			// Ground truth from the medium: every frame committed to the
			// microwave circuit vs every frame it lost in flight.
			redundancy.CounterSource{Tx: &wf.MW.PortA.TxFrames, Lost: &wf.MW.PortA.Lost},
			// Residual pressure from the feed side: datagrams mirrored vs
			// sequences the receiver gave up on (what the active policy
			// failed to absorb). Keeps the loop honest when port counters
			// alone would under-read a policy that is losing the fight.
			redundancy.CounterSource{Tx: &wf.Sender.Stats.DataFrames, Lost: &wf.Receiver.Stats.LostDeclared},
		},
		wf.Sender, wf.Receiver)

	// Addressing for the mirrored frames (nominal: the circuit delivers
	// port-to-port, but frames carry real headers like everything else).
	wf.src = pubNIC.Addr(wanPubPort)
	grp := pkt.MulticastGroup(3, 1)
	wf.dst = pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: exchange.MDPort}

	ex.SetOnPublishDgram(wf.Sender.Send)
	return wf
}

// Start engages the adaptive closed loop. The controller tick re-arms every
// window until Stop, so runs driving an adaptive mirror bound themselves
// with RunUntil (the E21 idiom) rather than running the queue dry.
func (wf *WANFeed) Start() { wf.Controller.Start() }

// ForceStatic pins one policy on both ends and leaves the controller off —
// the static arms of the E22 matrix.
func (wf *WANFeed) ForceStatic(p redundancy.Policy) {
	wf.Sender.Apply(p)
	wf.Receiver.Apply(p)
}

// emit transmits one wire frame on the microwave path.
func (wf *WANFeed) emit(b []byte) {
	wf.ipID++
	fr := netsim.NewFrame()
	fr.Data = pkt.AppendUDPFrame(fr.Data, wf.src, wf.dst, wf.ipID, b)
	fr.Origin = wf.sched.Now()
	wf.MW.PortA.Send(fr)
}

// deliver routes one in-order datagram off the redundancy layer into its
// unit's reassembler.
func (wf *WANFeed) deliver(payload []byte, _ bool) {
	var h feed.UnitHeader
	if _, err := feed.DecodeUnitHeader(payload, &h); err != nil {
		return
	}
	if int(h.Unit) >= len(wf.reasm) {
		return
	}
	_ = wf.reasm[h.Unit].Consume(payload, wf.onMsg)
}

// onMsg counts one live (or parity-reconstructed) in-order message.
func (wf *WANFeed) onMsg(*feed.Msg) { wf.FeedMsgs++ }

// onGap is the residual-loss path: the redundancy layer declared sequences
// lost, the reassembler saw the hole, and replay is the only healer left.
func (wf *WANFeed) onGap(gi feed.GapInfo) {
	wf.GapDgrams++
	wf.LostMsgs += uint64(gi.MsgsLost)
	wf.Requests++
	wf.PendingReplays++
	wf.cliStream.Write(feed.AppendRecoveryRequest(nil, gi.Unit, gi.Expected, gi.Got))
}

// RecoveredMsgs returns the messages replayed over the side channel.
func (wf *WANFeed) RecoveredMsgs() uint64 { return wf.recReader.Recovered }

// AccountedMsgs returns every message the remote site has seen by any route:
// in-order live/reconstructed delivery plus out-of-band replay. Replayed
// datagrams can overlap the gap range at datagram boundaries, so this can
// overshoot the published count — compare with >=, as E19 does.
func (wf *WANFeed) AccountedMsgs() uint64 { return wf.FeedMsgs + wf.recReader.Recovered }

// ReplayServed returns datagrams the exchange's replay service served to
// this mirror.
func (wf *WANFeed) ReplayServed() uint64 { return wf.srv.Served }

// RegisterMetrics registers the mirror's counters under wan.*.
func (wf *WANFeed) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterUint("wan.tx.data_frames", &wf.Sender.Stats.DataFrames)
	reg.RegisterUint("wan.tx.dup_frames", &wf.Sender.Stats.DupFrames)
	reg.RegisterUint("wan.tx.parity_frames", &wf.Sender.Stats.ParityFrames)
	reg.RegisterUint("wan.tx.data_bytes", &wf.Sender.Stats.DataBytes)
	reg.RegisterUint("wan.tx.overhead_bytes", &wf.Sender.Stats.OverheadBytes)
	reg.RegisterUint("wan.rx.delivered", &wf.Receiver.Stats.Delivered)
	reg.RegisterUint("wan.rx.reconstructed", &wf.Receiver.Stats.Reconstructed)
	reg.RegisterUint("wan.rx.duplicates", &wf.Receiver.Stats.Duplicates)
	reg.RegisterUint("wan.rx.lost_declared", &wf.Receiver.Stats.LostDeclared)
	reg.RegisterUint("wan.rx.parity_unused", &wf.Receiver.Stats.ParityUnused)
	reg.RegisterUint("wan.rx.parity_unusable", &wf.Receiver.Stats.ParityUnusable)
	reg.RegisterUint("wan.feed.msgs", &wf.FeedMsgs)
	reg.RegisterUint("wan.feed.gap_dgrams", &wf.GapDgrams)
	reg.RegisterUint("wan.feed.lost_msgs", &wf.LostMsgs)
	reg.RegisterUint("wan.replay.requests", &wf.Requests)
	reg.RegisterUint("wan.replay.recovered_msgs", &wf.recReader.Recovered)
	reg.RegisterUint("wan.replay.served_dgrams", &wf.srv.Served)
	reg.RegisterUint("wan.replay.unrecoverable", &wf.Unrecoverable)
	reg.RegisterUint("wan.ctl.switches", &wf.Controller.Switches)
	reg.RegisterUint("wan.ctl.windows_sampled", &wf.Controller.WindowsSampled)
	reg.RegisterUint("wan.ctl.windows_skipped", &wf.Controller.WindowsSkipped)
	reg.RegisterUint("wan.circuit.tx_frames", &wf.MW.PortA.TxFrames)
	reg.RegisterUint("wan.circuit.lost_frames", &wf.MW.PortA.Lost)
}
