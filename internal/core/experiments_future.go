package core

import (
	"fmt"
	"math/rand"

	"tradenet/internal/device"
	"tradenet/internal/firm"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/topo"
	"tradenet/internal/units"
	"tradenet/internal/workload"
)

// The experiments in this file cover the paper's §5 research agenda — the
// "future work" directions — as ablations: FPGA-filtered merging
// (Hardware), subscription-aware group mapping (Routing), placement
// optimization (Cluster Management), and filtering placement (§3
// Implications).

// FilteredMergeRow is one fan-in level of the filtered-merge ablation.
type FilteredMergeRow struct {
	FanIn             int
	RawDropped        uint64
	RawDelivered      uint64
	FilteredDropped   uint64
	FilteredDelivered uint64
	FilteredP99       sim.Duration
}

// FilteredMergeResult compares plain L1S merging with FPGA-filtered
// merging.
type FilteredMergeResult struct {
	Rows []FilteredMergeRow
}

// RunFilteredMerge merges fanIn bursty single-group feeds onto one 10G
// output, where the consumer wants only one group. Plain merging carries
// everything and overruns the line; filtering discards unwanted groups in
// the switch, keeping the merge safe (§5 Hardware).
func RunFilteredMerge(fanIns []int, millis int, seed int64) FilteredMergeResult {
	var out FilteredMergeResult
	for _, k := range fanIns {
		row := FilteredMergeRow{FanIn: k}
		for _, filtered := range []bool{false, true} {
			sched := sim.NewScheduler(seed)
			cfg := device.DefaultFilteringL1Config()
			sw := device.NewFilteringL1Switch(sched, "fl1s", k+1, cfg)
			lat := metrics.NewHistogram()
			netsim.Connect(sw.Port(k), netsim.NewPort(sched, latencySink(sched, lat), "rx"), units.Rate10G, 0)

			groups := make([]pkt.IP4, k)
			for i := range groups {
				groups[i] = pkt.MulticastGroup(1, uint16(i))
			}
			if filtered {
				sw.Subscribe(k, groups[0])
			}
			end := sim.Time(sim.Duration(millis) * sim.Millisecond)
			for i := 0; i < k; i++ {
				tx := netsim.NewPort(sched, nil, fmt.Sprintf("tx%d", i))
				tx.SetQueueCapacity(1 << 26)
				netsim.Connect(tx, sw.Port(i), units.Rate10G, 0)
				sw.Circuit(i, k)
				proc := workload.NewMMPP(
					workload.MMPPState{Rate: 400_000, MeanDwell: 2 * sim.Millisecond},
					workload.MMPPState{Rate: 3_200_000, MeanDwell: 120 * sim.Microsecond},
				)
				g := groups[i]
				src := pkt.UDPAddr{MAC: pkt.HostMAC(uint32(i + 1)), IP: pkt.HostIP(uint32(i + 1)), Port: 1}
				dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(g), IP: g, Port: 2}
				payload := make([]byte, 558)
				txp := tx
				workload.Generate(sched, proc, 0, end, func() {
					txp.Send(&netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, payload), Origin: sched.Now()})
				})
			}
			sched.Run()
			if filtered {
				row.FilteredDelivered = sw.Port(k).TxFrames
				row.FilteredDropped = sw.Port(k).Drops
				row.FilteredP99 = sim.Duration(lat.P99())
			} else {
				row.RawDelivered = sw.Port(k).TxFrames
				row.RawDropped = sw.Port(k).Drops
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the comparison.
func (r FilteredMergeResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rawLoss := float64(row.RawDropped) / float64(row.RawDropped+row.RawDelivered) * 100
		filtLoss := float64(row.FilteredDropped) / float64(row.FilteredDropped+row.FilteredDelivered) * 100
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.FanIn),
			fmt.Sprintf("%.1f%%", rawLoss),
			fmt.Sprintf("%.1f%%", filtLoss),
			row.FilteredP99.String(),
		})
	}
	return "Filtered merge ablation (§5 Hardware): FPGA filtering makes merges safe\n" +
		metrics.Table([]string{"fan-in", "raw merge loss", "filtered loss", "filtered p99"}, rows)
}

// PlacementResult is the §4.1/§5 placement-optimization ablation.
type PlacementResult struct {
	BaselineMeanHops  float64
	OptimizedMeanHops float64
	LowerBoundHops    float64
	GapClosed         float64
}

// RunPlacement builds a plant-shaped placement instance and compares
// function-grouped racks against hill-climbed placement.
func RunPlacement(nNorm, nStrat, nGw, racks, rackCap int, seed int64) PlacementResult {
	pp := &topo.PlacementProblem{Racks: racks, RackCap: rackCap, Pinned: map[int]int{0: 0}}
	pp.Components = append(pp.Components, topo.Component{Name: "exch", Kind: topo.KindExchangePort})
	normBase := len(pp.Components)
	for i := 0; i < nNorm; i++ {
		pp.Components = append(pp.Components, topo.Component{Kind: topo.KindNormalizer})
		pp.Demands = append(pp.Demands, topo.Demand{From: 0, To: normBase + i, Weight: 100})
	}
	stratBase := len(pp.Components)
	for i := 0; i < nStrat; i++ {
		pp.Components = append(pp.Components, topo.Component{Kind: topo.KindStrategy})
		pp.Demands = append(pp.Demands, topo.Demand{From: normBase + i%nNorm, To: stratBase + i, Weight: 50})
	}
	gwBase := len(pp.Components)
	for i := 0; i < nGw; i++ {
		pp.Components = append(pp.Components, topo.Component{Kind: topo.KindGateway})
		pp.Demands = append(pp.Demands, topo.Demand{From: gwBase + i, To: 0, Weight: 80})
	}
	for i := 0; i < nStrat; i++ {
		pp.Demands = append(pp.Demands, topo.Demand{From: stratBase + i, To: gwBase + i%nGw, Weight: 10})
	}

	base := pp.FunctionGrouped()
	opt, _ := pp.Improve(base, 100, rand.New(rand.NewSource(seed)))
	res := PlacementResult{
		BaselineMeanHops:  pp.MeanHops(base),
		OptimizedMeanHops: pp.MeanHops(opt),
		LowerBoundHops:    1,
	}
	res.GapClosed = (res.BaselineMeanHops - res.OptimizedMeanHops) /
		(res.BaselineMeanHops - res.LowerBoundHops)
	return res
}

// String renders the placement comparison.
func (r PlacementResult) String() string {
	return fmt.Sprintf(`Placement optimization (§4.1 remark, §5 Cluster Management)
  function-grouped racks: %.2f mean switch hops per message
  optimized placement:    %.2f mean switch hops
  all-local lower bound:  %.2f
  gap closed: %.0f%% — "we could only optimize placement for a few
  strategies and the majority would not benefit" (§4.1)
`, r.BaselineMeanHops, r.OptimizedMeanHops, r.LowerBoundHops, r.GapClosed*100)
}

// GroupMappingResult is the §5 Routing ablation: co-designing the
// partition→group mapping against actual subscriptions.
type GroupMappingResult struct {
	Partitions    int
	GroupBudget   int
	NaiveUnwanted float64 // fraction of delivered messages unwanted, naive mapping
	OptUnwanted   float64 // same, subscription-clustered mapping
}

// RunGroupMapping compares two ways of packing P partitions into G < P
// multicast groups when consumers subscribe to contiguous partition
// windows: naive modulo packing scatters each consumer's window across
// groups (so every group delivers mostly unwanted traffic), while
// clustering adjacent partitions into the same group keeps delivery tight.
// This is the §5 Routing question: "by co-designing the algorithm used to
// transform raw market data ... as well as the mapping from feeds to
// multicast groups, can we achieve a more efficient design?"
func RunGroupMapping(partitions, groupBudget, consumers int, seed int64) GroupMappingResult {
	rng := rand.New(rand.NewSource(seed))
	window := partitions / 4
	type consumer struct{ lo int }
	cs := make([]consumer, consumers)
	for i := range cs {
		cs[i] = consumer{lo: rng.Intn(partitions)}
	}
	wants := func(c consumer, part int) bool {
		off := (part - c.lo + partitions) % partitions
		return off < window
	}
	// Per-partition traffic is uniform; measure, for each mapping, the
	// fraction of (consumer, delivered message) pairs that are unwanted.
	measure := func(groupOf func(part int) int) float64 {
		// groupMembers[g] = set of partitions in group g.
		members := make(map[int][]int)
		for p := 0; p < partitions; p++ {
			members[groupOf(p)] = append(members[groupOf(p)], p)
		}
		var wanted, delivered float64
		joined := make([]bool, groupBudget)
		for _, c := range cs {
			for i := range joined {
				joined[i] = false
			}
			for p := 0; p < partitions; p++ {
				if wants(c, p) {
					joined[groupOf(p)] = true
				}
			}
			for g, in := range joined {
				if !in {
					continue
				}
				for _, p := range members[g] {
					delivered++
					if wants(c, p) {
						wanted++
					}
				}
			}
		}
		if delivered == 0 {
			return 0
		}
		return 1 - wanted/delivered
	}
	naive := measure(func(p int) int { return p % groupBudget })
	clustered := measure(func(p int) int { return p * groupBudget / partitions })
	return GroupMappingResult{
		Partitions:    partitions,
		GroupBudget:   groupBudget,
		NaiveUnwanted: naive,
		OptUnwanted:   clustered,
	}
}

// String renders the mapping comparison.
func (r GroupMappingResult) String() string {
	return fmt.Sprintf(`Group-mapping co-design (§5 Routing): %d partitions into %d groups
  naive modulo mapping:   %.0f%% of delivered messages unwanted
  clustered mapping:      %.0f%% unwanted
  subscription-aware mapping cuts wasted delivery when groups are scarce
  (the mroute squeeze of §3 is exactly what makes them scarce).
`, r.Partitions, r.GroupBudget, r.NaiveUnwanted*100, r.OptUnwanted*100)
}

// TimestampPrecisionResult is the §2 timestamping study: how sync precision
// drives event-ordering fidelity.
type TimestampPrecisionResult struct {
	Rows []TimestampPrecisionRow
}

// TimestampPrecisionRow is one sync-precision level.
type TimestampPrecisionRow struct {
	Precision  sim.Duration
	Inversions int
	Pairs      int
}

// RunTimestampPrecision measures ordering errors between two taps whose
// clocks are disciplined to each precision, observing event pairs spaced
// like back-to-back feed messages at 10G (§2: "precise timestamps are
// necessary for understanding the ordering of market data events"; some
// firms want <100 ps).
func RunTimestampPrecision(pairs int, seed int64) TimestampPrecisionResult {
	gap := units.SerializationDelay(100, units.Rate10G) // ~80 ns between events
	var out TimestampPrecisionResult
	for _, prec := range []sim.Duration{sim.Microsecond, 100 * sim.Nanosecond, 10 * sim.Nanosecond, 100 * sim.Picosecond} {
		rng := rand.New(rand.NewSource(seed))
		inv := 0
		for i := 0; i < pairs; i++ {
			a := newSyncedClock(prec, rng)
			b := newSyncedClock(prec, rng)
			t0 := sim.Time(i) * sim.Time(sim.Microsecond)
			t1 := t0.Add(gap)
			if b.Read(t1) < a.Read(t0) {
				inv++
			}
		}
		out.Rows = append(out.Rows, TimestampPrecisionRow{Precision: prec, Inversions: inv, Pairs: pairs})
	}
	return out
}

func newSyncedClock(prec sim.Duration, rng *rand.Rand) *clockShim {
	off := sim.Duration(0)
	if prec > 0 {
		off = sim.Duration(rng.Int63n(int64(2*prec)+1)) - prec
	}
	return &clockShim{off: off}
}

type clockShim struct{ off sim.Duration }

func (c *clockShim) Read(t sim.Time) sim.Time { return t.Add(c.off) }

// String renders the precision sweep.
func (r TimestampPrecisionResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Precision.String(),
			fmt.Sprintf("%.2f%%", float64(row.Inversions)/float64(row.Pairs)*100),
		})
	}
	return "Timestamp sync precision vs event-ordering errors (§2; events ~80ns apart)\n" +
		metrics.Table([]string{"sync precision", "misordered pairs"}, rows)
}

// FilterPlacementResult sweeps consumer counts for the §3 filtering-
// placement decision.
type FilterPlacementResult struct {
	Rows []FilterPlacementRow
}

// FilterPlacementRow is one consumer count.
type FilterPlacementRow struct {
	Consumers      int
	InProcessCores float64
	MiddleboxCores float64
}

func filterPlacementInstance(consumers int) firm.FilterPlacement {
	return firm.FilterPlacement{
		Rate:        1_000_000,
		Want:        0.1,
		Consumers:   consumers,
		DiscardCost: 50 * sim.Nanosecond,
		ProcessCost: 500 * sim.Nanosecond,
	}
}

// RunFilterPlacement sweeps the §3 middlebox-vs-in-process arithmetic.
func RunFilterPlacement() FilterPlacementResult {
	var out FilterPlacementResult
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		fp := filterPlacementInstance(n)
		out.Rows = append(out.Rows, FilterPlacementRow{
			Consumers:      n,
			InProcessCores: fp.InProcessCoresUsed(),
			MiddleboxCores: fp.MiddleboxCoresUsed(),
		})
	}
	return out
}

// String renders the sweep.
func (r FilterPlacementResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		winner := "in-process"
		if row.MiddleboxCores < row.InProcessCores {
			winner = "middlebox"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Consumers),
			fmt.Sprintf("%.2f", row.InProcessCores),
			fmt.Sprintf("%.2f", row.MiddleboxCores),
			winner,
		})
	}
	return "Filtering placement (§3): cores used, 1M msg/s feed, 10% wanted\n" +
		metrics.Table([]string{"consumers", "in-process cores", "middlebox cores", "winner"}, rows)
}
